(** The common file-system interface.

    Both file systems — the memory-resident {!Memfs} the paper advocates
    and the conventional disk-based {!Ffs} baseline — satisfy this
    signature, so experiments and examples can run the same workload over
    either.  Every operation reports the simulated latency the caller
    observed. *)

type span = Sim.Time.span

module type S = sig
  type t

  val name : t -> string

  val mkdir : t -> string -> (span, Fs_error.t) result
  val create : t -> string -> (span, Fs_error.t) result
  (** Create an empty regular file. *)

  val write : t -> string -> offset:int -> bytes:int -> (span, Fs_error.t) result
  (** Write [bytes] at [offset], extending the file (and filling any gap)
      as needed. *)

  val read : t -> string -> offset:int -> bytes:int -> (span, Fs_error.t) result
  (** Read up to [bytes]; reading past end-of-file reads less (charging
      only what was read) and reading at or past it reads nothing. *)

  val truncate : t -> string -> size:int -> (span, Fs_error.t) result

  val rename : t -> string -> string -> (span, Fs_error.t) result
  (** [rename t src dst] moves a file or directory.  [dst] must not exist;
      a directory cannot be moved into its own subtree. *)

  val unlink : t -> string -> (span, Fs_error.t) result
  val rmdir : t -> string -> (span, Fs_error.t) result
  val file_size : t -> string -> (int, Fs_error.t) result
  val exists : t -> string -> bool
  val readdir : t -> string -> (string list, Fs_error.t) result
  val sync : t -> span
  (** Push all buffered state to stable storage. *)
end

(** {1 Trace-record application}

    Runs a {!Trace} file id against an [S] by mapping ids to paths — the
    glue used by machine models and experiments. *)

val path_of_file_id : int -> string
(** ["/data/f<id>"]. *)

val leaf_of_file_id : int -> string
(** ["f<id>"], the name of {!path_of_file_id}'s file inside ["/data"].

    Both strings come from one interning table per domain (read-only
    shared strings, no cross-domain mutable state): repeated calls on a
    domain return the same physical string without formatting. *)
