(** Garbage-collection victim selection.

    When free segments run low the storage manager must clean: copy the
    live blocks out of some closed segment and erase it.  Which segment to
    clean is the policy decision this module makes.  Two classic policies:

    - {e Greedy}: clean the segment with the fewest live blocks — least
      copying now, but it re-cleans hot segments and lets cold, half-dead
      segments pin space forever.
    - {e Cost-benefit} (Rosenblum & Ousterhout): maximize
      [age * (1 - u) / (1 + u)] where [u] is utilization and [age] the time
      since the segment last changed; old, partly-dead segments get cleaned
      even at higher utilization, which keeps cleaning cost stable as the
      disk (here: flash) fills.

    Selection is a pure function over segment statistics so policies can be
    unit-tested in isolation and benchmarked head-to-head (experiment E7).
    {!select} is the reference fold; {!best_closed} is the manager's
    allocation-free pass.  Both compute {!score}'s float through one
    formula over integer statistics, so they agree bit for bit. *)

type policy = Greedy | Cost_benefit

val pp_policy : Format.formatter -> policy -> unit
val policy_name : policy -> string

val score : policy -> now:Sim.Time.t -> Segment.t -> float
(** Desirability of cleaning this segment (higher = better victim). *)

val select :
  policy -> now:Sim.Time.t -> eligible:(Segment.t -> bool) -> Segment.t array ->
  Segment.t option
(** The best eligible Closed segment, or [None].  Fully-live segments are
    still eligible (static wear leveling may force them); scoring naturally
    deprioritizes them. *)

val best_closed :
  policy ->
  now:Sim.Time.t ->
  candidate:bool array ->
  segs_per_bank:int ->
  allowed:(bank:int -> bool) ->
  Segment.t array ->
  int
(** The id of the highest-scoring segment whose [candidate] bit is set,
    among the banks [allowed] accepts (bank [b] holds ids
    [\[b * segs_per_bank, (b + 1) * segs_per_bank)]), or [-1] if there is
    none.  Ties go to the lowest id.  The caller's candidate bit stands for
    "Closed, not retired, not being cleaned", so this picks what {!select}
    picks over the same segments.  One pass over the id range that
    allocates nothing per candidate. *)

val write_amplification : blocks_written:int -> blocks_flushed:int -> float
(** Total flash programs (client flushes + cleaner copies) per client
    flush; 1.0 means the cleaner copied nothing.  [blocks_written] counts
    every program, [blocks_flushed] only the client's.  Returns 1.0 when
    nothing was flushed. *)
