type span = Sim.Time.span

module type S = sig
  type t

  val name : t -> string
  val mkdir : t -> string -> (span, Fs_error.t) result
  val create : t -> string -> (span, Fs_error.t) result
  val write : t -> string -> offset:int -> bytes:int -> (span, Fs_error.t) result
  val read : t -> string -> offset:int -> bytes:int -> (span, Fs_error.t) result
  val truncate : t -> string -> size:int -> (span, Fs_error.t) result
  val rename : t -> string -> string -> (span, Fs_error.t) result
  val unlink : t -> string -> (span, Fs_error.t) result
  val rmdir : t -> string -> (span, Fs_error.t) result
  val file_size : t -> string -> (int, Fs_error.t) result
  val exists : t -> string -> bool
  val readdir : t -> string -> (string list, Fs_error.t) result
  val sync : t -> span
end

(* Replay names a file once per record; a [Printf] per call is measurable
   in the hot loop, so both names are interned per id.  Ids are small and
   dense.  The table is per domain, so machines replaying on different
   [Pool] domains never share a mutable table. *)
type names = { mutable paths : string array; mutable leaves : string array }

let names_key = Domain.DLS.new_key (fun () -> { paths = [||]; leaves = [||] })

let intern id =
  let t = Domain.DLS.get names_key in
  if id >= Array.length t.paths then begin
    let grow a =
      let bigger = Array.make (max (id + 1) ((2 * Array.length a) + 64)) "" in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    t.paths <- grow t.paths;
    t.leaves <- grow t.leaves
  end;
  if String.length t.leaves.(id) = 0 then begin
    let leaf = "f" ^ string_of_int id in
    t.leaves.(id) <- leaf;
    t.paths.(id) <- "/data/" ^ leaf
  end;
  t

let path_of_file_id id =
  if id < 0 then "/data/f" ^ string_of_int id else (intern id).paths.(id)

let leaf_of_file_id id =
  if id < 0 then "f" ^ string_of_int id else (intern id).leaves.(id)
