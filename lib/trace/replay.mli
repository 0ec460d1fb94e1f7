(** Trace lowering for replay.

    The machine's replay loop ([Ssmc.Machine.run_seq] and
    [Ssmc.Machine.run_compiled]) consumes records in the flat integer form
    defined here: a dispatch tag, a file id and two arguments per record.
    A streamed trace is lowered one record at a time with
    {!Compiled.lower}; a trace replayed many times is lowered once into
    struct-of-arrays form with {!Compiled.compile_seq}, which stores exactly
    the fields [lower] produces. *)

(** A trace lowered to flat struct-of-arrays form for the compiled replay
    fast path: consumers index int arrays instead of matching on
    {!Record.op} and allocating per-record closures.  Compile once, replay
    many times — the arrays are immutable by convention. *)
module Compiled : sig
  type t = private {
    n : int;
    at_ns : int array;  (** Record instants, in trace time (ns). *)
    tag : int array;  (** One of the [tag_*] values below. *)
    file : int array;
    arg1 : int array;  (** offset (write/read) or size (truncate); else 0. *)
    arg2 : int array;  (** bytes (write/read); else 0. *)
  }
  (** Fields are exposed (read-only) so replay loops index the arrays
      directly; construct only through {!compile_seq}/{!compile}. *)

  type row = {
    row_at_ns : int;
    row_tag : int;
    row_file : int;
    row_arg1 : int;
    row_arg2 : int;
  }
  (** One record's fields, as {!t} stores them at one index. *)

  val lower : Record.t -> row
  (** Lower one record.  Holds nothing: a streamed trace lowered record by
      record replays in constant memory. *)

  val compile_seq : Record.t Seq.t -> t
  (** Materialize and lower a trace ({!lower} per record).  This holds the
      whole trace (5 ints per record). *)

  val compile : Record.t list -> t

  val length : t -> int

  (** Dense dispatch tags; [tag] is always one of these. *)

  val tag_create : int
  val tag_write : int
  val tag_read : int
  val tag_truncate : int
  val tag_delete : int
end
