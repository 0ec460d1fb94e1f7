(* [Storage.Array] (the card array) would shadow the stdlib inside this library. *)
module Array = Stdlib.Array
module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

module Bucketed = struct
  type t = {
    mutable buckets : Int_set.t Int_map.t;
    mutable size : int;
  }

  let create () = { buckets = Int_map.empty; size = 0 }
  let size t = t.size

  let mem t ~key id =
    match Int_map.find_opt key t.buckets with
    | None -> false
    | Some set -> Int_set.mem id set

  let add t ~key id =
    let set =
      match Int_map.find_opt key t.buckets with
      | None -> Int_set.empty
      | Some set ->
        if Int_set.mem id set then
          invalid_arg
            (Printf.sprintf "Seg_index.Bucketed.add: id %d already under key %d" id key);
        set
    in
    t.buckets <- Int_map.add key (Int_set.add id set) t.buckets;
    t.size <- t.size + 1

  let remove t ~key id =
    match Int_map.find_opt key t.buckets with
    | None ->
      invalid_arg (Printf.sprintf "Seg_index.Bucketed.remove: no bucket for key %d" key)
    | Some set ->
      if not (Int_set.mem id set) then
        invalid_arg
          (Printf.sprintf "Seg_index.Bucketed.remove: id %d not under key %d" id key);
      let set = Int_set.remove id set in
      t.buckets <-
        (if Int_set.is_empty set then Int_map.remove key t.buckets
         else Int_map.add key set t.buckets);
      t.size <- t.size - 1

  let min_entry t =
    match Int_map.min_binding_opt t.buckets with
    | None -> None
    | Some (key, set) -> Some (key, Int_set.min_elt set)

  let max_entry t =
    match Int_map.max_binding_opt t.buckets with
    | None -> None
    | Some (key, set) -> Some (key, Int_set.min_elt set)
end

type t = {
  nbanks : int;
  wear_keyed : bool;
  track_erase : bool;
  free : Bucketed.t array;
  by_erase : Bucketed.t array;
  mutable free_total : int;
}

let create ~nbanks ~wear_keyed ~track_erase =
  if nbanks < 1 then invalid_arg "Seg_index.create: nbanks < 1";
  {
    nbanks;
    wear_keyed;
    track_erase;
    free = Array.init nbanks (fun _ -> Bucketed.create ());
    by_erase = Array.init nbanks (fun _ -> Bucketed.create ());
    free_total = 0;
  }

let clear t =
  for bank = 0 to t.nbanks - 1 do
    t.free.(bank) <- Bucketed.create ();
    t.by_erase.(bank) <- Bucketed.create ()
  done;
  t.free_total <- 0

let wear_keyed t = t.wear_keyed

let check_bank t bank =
  if bank < 0 || bank >= t.nbanks then invalid_arg "Seg_index: bank out of range"

(* --- Free side ------------------------------------------------------------ *)

let free_count t = t.free_total

let bank_free_count t ~bank =
  check_bank t bank;
  Bucketed.size t.free.(bank)

let add_free t ~bank ~key ~id =
  check_bank t bank;
  Bucketed.add t.free.(bank) ~key id;
  t.free_total <- t.free_total + 1

let remove_free t ~bank ~key ~id =
  check_bank t bank;
  Bucketed.remove t.free.(bank) ~key id;
  t.free_total <- t.free_total - 1

let least_worn_free t ~bank =
  check_bank t bank;
  Bucketed.min_entry t.free.(bank)

let most_worn_free t ~bank =
  check_bank t bank;
  Bucketed.max_entry t.free.(bank)

(* --- Closed side (static wear-leveling relocation) ------------------------ *)

let add_closed t ~bank ~id ~erase =
  check_bank t bank;
  if t.track_erase then Bucketed.add t.by_erase.(bank) ~key:erase id

let remove_closed t ~bank ~id ~erase =
  check_bank t bank;
  if t.track_erase then Bucketed.remove t.by_erase.(bank) ~key:erase id

let coldest_closed t ~bank =
  check_bank t bank;
  Bucketed.min_entry t.by_erase.(bank)
