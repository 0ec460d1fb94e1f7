(** File-system trace records.

    A trace is a time-ordered list of operations against numbered files.
    Traces drive every end-to-end experiment: the synthetic generator
    ({!Synth}) produces them, {!Replay} lowers them for the machine's
    replay loop, and {!Stats} analyzes them. *)

type file_id = int
(** Files are identified by small integers; names are a file-system concern. *)

type op =
  | Create of { file : file_id }
  | Write of { file : file_id; offset : int; bytes : int }
  | Read of { file : file_id; offset : int; bytes : int }
  | Truncate of { file : file_id; size : int }
  | Delete of { file : file_id }

type t = { at : Sim.Time.t; op : op }

val file : t -> file_id
(** The file the record touches. *)

val bytes_written : t -> int
(** Bytes of write payload ([Write] only; 0 otherwise). *)

val bytes_read : t -> int

val is_data_op : t -> bool
(** [Read] or [Write]. *)

val compare_by_time : t -> t -> int
(** Orders records by timestamp (stable for equal stamps is up to the
    sorting function used). *)

val pp : Format.formatter -> t -> unit
