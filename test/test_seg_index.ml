(* Seg_index: the bucketed multiset and the composite per-bank index that
   back the storage manager's O(log n) decisions. *)

module B = Storage.Seg_index.Bucketed
module I = Storage.Seg_index

let entry = Alcotest.(option (pair int int))

let test_bucketed_basics () =
  let b = B.create () in
  Alcotest.(check int) "empty size" 0 (B.size b);
  Alcotest.check entry "empty min" None (B.min_entry b);
  Alcotest.check entry "empty max" None (B.max_entry b);
  B.add b ~key:5 10;
  B.add b ~key:2 7;
  B.add b ~key:5 3;
  Alcotest.(check int) "size" 3 (B.size b);
  Alcotest.check entry "min key" (Some (2, 7)) (B.min_entry b);
  Alcotest.check entry "max key, lowest id in bucket" (Some (5, 3)) (B.max_entry b);
  B.remove b ~key:2 7;
  Alcotest.check entry "min moves after remove" (Some (5, 3)) (B.min_entry b);
  B.remove b ~key:5 3;
  Alcotest.check entry "tie mate remains" (Some (5, 10)) (B.min_entry b)

let test_bucketed_tie_lowest_id () =
  (* All keys equal: both extrema must report the lowest id — the property
     that makes index picks match the reference scans' first-in-id-order
     tie-breaking. *)
  let b = B.create () in
  List.iter (fun id -> B.add b ~key:4 id) [ 9; 1; 6; 3 ];
  Alcotest.check entry "min tie" (Some (4, 1)) (B.min_entry b);
  Alcotest.check entry "max tie" (Some (4, 1)) (B.max_entry b)

let test_bucketed_misuse_raises () =
  let b = B.create () in
  B.add b ~key:1 2;
  Alcotest.check_raises "double add"
    (Invalid_argument "Seg_index.Bucketed.add: id 2 already under key 1") (fun () ->
      B.add b ~key:1 2);
  Alcotest.check_raises "remove absent id"
    (Invalid_argument "Seg_index.Bucketed.remove: id 3 not under key 1") (fun () ->
      B.remove b ~key:1 3);
  Alcotest.check_raises "remove absent key"
    (Invalid_argument "Seg_index.Bucketed.remove: no bucket for key 9") (fun () ->
      B.remove b ~key:9 2)

(* Model-based check: the bucketed structure against a naive association
   list, over random add/remove/query sequences. *)
let prop_bucketed_matches_model =
  QCheck.Test.make ~name:"seg_index: bucketed matches naive model" ~count:300
    QCheck.(list (triple (int_bound 7) (int_bound 15) bool))
    (fun ops ->
      let b = B.create () in
      let model = ref [] in
      List.iter
        (fun (key, id, add) ->
          if add then begin
            if not (List.mem (key, id) !model) then begin
              B.add b ~key id;
              model := (key, id) :: !model
            end
          end
          else if List.mem (key, id) !model then begin
            B.remove b ~key id;
            model := List.filter (fun e -> e <> (key, id)) !model
          end)
        ops;
      let extreme pick =
        match !model with
        | [] -> None
        | l ->
          let key = List.fold_left (fun acc (k, _) -> pick acc k) (fst (List.hd l)) l in
          let ids = List.filter_map (fun (k, i) -> if k = key then Some i else None) l in
          Some (key, List.fold_left min (List.hd ids) ids)
      in
      B.size b = List.length !model
      && B.min_entry b = extreme min
      && B.max_entry b = extreme max)

let test_free_side_counters () =
  let idx =
    I.create ~nbanks:2 ~wear_keyed:true ~track_erase:true
  in
  I.add_free idx ~bank:0 ~key:3 ~id:0;
  I.add_free idx ~bank:0 ~key:3 ~id:1;
  I.add_free idx ~bank:1 ~key:1 ~id:8;
  Alcotest.(check int) "total" 3 (I.free_count idx);
  Alcotest.(check int) "bank 0" 2 (I.bank_free_count idx ~bank:0);
  Alcotest.check entry "least worn, tie to low id" (Some (3, 0))
    (I.least_worn_free idx ~bank:0);
  I.remove_free idx ~bank:0 ~key:3 ~id:0;
  Alcotest.(check int) "total after remove" 2 (I.free_count idx);
  Alcotest.check entry "survivor" (Some (3, 1)) (I.least_worn_free idx ~bank:0);
  Alcotest.check entry "other bank untouched" (Some (1, 8)) (I.most_worn_free idx ~bank:1)

let suite =
  [
    Alcotest.test_case "bucketed basics" `Quick test_bucketed_basics;
    Alcotest.test_case "bucketed tie -> lowest id" `Quick test_bucketed_tie_lowest_id;
    Alcotest.test_case "bucketed misuse raises" `Quick test_bucketed_misuse_raises;
    QCheck_alcotest.to_alcotest prop_bucketed_matches_model;
    Alcotest.test_case "free side counters" `Quick test_free_side_counters;
  ]
