(** Incrementally maintained segment-state indexes for {!Manager}.

    The storage manager's allocation decisions — which free segment to
    open ({!Wear.pick_free} plus the least-busy-bank restriction) and,
    under static wear leveling, which closed segment to relocate
    ({!Wear.relocation_victim}) — were originally full scans over the
    segment array on every call.  This module keeps them available as
    O(log n) lookups over structures updated at each segment state
    transition:

    - per bank, the {e free} segments bucketed by wear key (erase count,
      or a constant under first-fit allocation), so least-worn / most-worn
      / first-fit picks are a [min_binding] away;
    - per bank, the {e closed} segments bucketed by erase count (static
      wear-leveling relocation).

    Cleaning victims are not indexed here: a victim's score moves with
    every kill and with the clock, so {!Cleaner.best_closed} reads the
    live counts and last-touched instants in one allocation-free pass
    instead.

    Buckets are [Map]/[Set] based, so every entry point is O(log n) and
    min/max queries return the {e lowest segment id} within the extreme
    bucket — matching the first-in-id-order tie-breaking of the reference
    scans, which the differential tests pin down.

    This module is pure bookkeeping over [(bank, id, key)] integers; it
    never touches devices or segments.  {!Manager} owns the hook points
    and the policy logic that combines per-bank answers. *)

module Bucketed : sig
  (** A multiset of segment ids bucketed by an integer key, with O(log n)
      add/remove and O(log n) (key, lowest id) min/max queries. *)

  type t

  val create : unit -> t
  val size : t -> int
  val mem : t -> key:int -> int -> bool

  val add : t -> key:int -> int -> unit
  (** @raise Invalid_argument if the id is already present under [key]. *)

  val remove : t -> key:int -> int -> unit
  (** @raise Invalid_argument if the id is not present under [key]. *)

  val min_entry : t -> (int * int) option
  (** [(lowest key, lowest id within that bucket)]. *)

  val max_entry : t -> (int * int) option
  (** [(highest key, lowest id within that bucket)]. *)
end

type t

val create : nbanks:int -> wear_keyed:bool -> track_erase:bool -> t
(** [wear_keyed] selects the free-index key: the segment's erase count
    (wear-leveling allocation) or [0] (first-fit, so the min entry is
    simply the lowest free id).  [track_erase] enables the closed-segment
    erase index, which only static wear leveling consults; disabled, it
    costs nothing to maintain. *)

val clear : t -> unit
(** Empty every structure (before a full reindex). *)

val wear_keyed : t -> bool

(** {1 Free side} *)

val free_count : t -> int
(** Total free segments across banks, O(1). *)

val bank_free_count : t -> bank:int -> int

val add_free : t -> bank:int -> key:int -> id:int -> unit
val remove_free : t -> bank:int -> key:int -> id:int -> unit

val least_worn_free : t -> bank:int -> (int * int) option
(** [(key, id)] of the least-worn free segment in the bank, lowest id on
    ties.  Under [wear_keyed = false] every key is [0], so this is
    first-fit: the lowest free id. *)

val most_worn_free : t -> bank:int -> (int * int) option

(** {1 Closed side} *)

val add_closed : t -> bank:int -> id:int -> erase:int -> unit
(** Index a segment that just transitioned to Closed under its erase
    count. *)

val remove_closed : t -> bank:int -> id:int -> erase:int -> unit

val coldest_closed : t -> bank:int -> (int * int) option
(** [(erase count, id)] of the least-worn closed segment in the bank
    (static wear-leveling relocation candidate). *)
