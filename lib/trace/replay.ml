open Sim

(* --- Compiled traces ------------------------------------------------------

   A trace lowered to flat, pre-sized struct-of-arrays form: one int per
   field per record, no constructors, no per-record boxing.  Replay loops
   index these arrays directly instead of matching on [Record.op] and
   allocating a closure environment per record — the dispatch tag doubles
   as the index into whatever handler table the consumer pre-resolves. *)

module Compiled = struct
  (* Dispatch tags, densely numbered for table dispatch. *)
  let tag_create = 0
  let tag_write = 1
  let tag_read = 2
  let tag_truncate = 3
  let tag_delete = 4

  type t = {
    n : int;
    at_ns : int array;  (** Record instants, in trace time (ns). *)
    tag : int array;  (** One of the [tag_*] values. *)
    file : int array;
    arg1 : int array;  (** offset (write/read) or size (truncate); else 0. *)
    arg2 : int array;  (** bytes (write/read); else 0. *)
  }

  type row = {
    row_at_ns : int;
    row_tag : int;
    row_file : int;
    row_arg1 : int;
    row_arg2 : int;
  }

  let length c = c.n

  let lower r =
    let row_at_ns = Time.to_ns r.Record.at in
    match r.Record.op with
    | Record.Create { file } ->
      { row_at_ns; row_tag = tag_create; row_file = file; row_arg1 = 0; row_arg2 = 0 }
    | Record.Write { file; offset; bytes } ->
      { row_at_ns; row_tag = tag_write; row_file = file; row_arg1 = offset;
        row_arg2 = bytes }
    | Record.Read { file; offset; bytes } ->
      { row_at_ns; row_tag = tag_read; row_file = file; row_arg1 = offset;
        row_arg2 = bytes }
    | Record.Truncate { file; size } ->
      { row_at_ns; row_tag = tag_truncate; row_file = file; row_arg1 = size; row_arg2 = 0 }
    | Record.Delete { file } ->
      { row_at_ns; row_tag = tag_delete; row_file = file; row_arg1 = 0; row_arg2 = 0 }

  let compile_seq records =
    let cap = ref 1024 in
    let at_ns = ref (Array.make !cap 0) in
    let tag = ref (Array.make !cap 0) in
    let file = ref (Array.make !cap 0) in
    let arg1 = ref (Array.make !cap 0) in
    let arg2 = ref (Array.make !cap 0) in
    let n = ref 0 in
    let grow () =
      let ncap = 2 * !cap in
      let extend a = let na = Array.make ncap 0 in Array.blit !a 0 na 0 !n; a := na in
      extend at_ns; extend tag; extend file; extend arg1; extend arg2;
      cap := ncap
    in
    Seq.iter
      (fun r ->
        if !n = !cap then grow ();
        let i = !n in
        let l = lower r in
        !at_ns.(i) <- l.row_at_ns;
        !tag.(i) <- l.row_tag;
        !file.(i) <- l.row_file;
        !arg1.(i) <- l.row_arg1;
        !arg2.(i) <- l.row_arg2;
        incr n)
      records;
    let shrink a = if Array.length !a = !n then !a else Array.sub !a 0 !n in
    {
      n = !n;
      at_ns = shrink at_ns;
      tag = shrink tag;
      file = shrink file;
      arg1 = shrink arg1;
      arg2 = shrink arg2;
    }

  let compile records = compile_seq (List.to_seq records)
end
