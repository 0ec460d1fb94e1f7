(* [Storage.Array] (the card array) would shadow the stdlib inside this library. *)
module Array = Stdlib.Array
open Sim

type policy = Greedy | Cost_benefit

let policy_name = function Greedy -> "greedy" | Cost_benefit -> "cost-benefit"
let pp_policy ppf p = Fmt.string ppf (policy_name p)

(* The one scoring formula, over integer statistics.  [score] (and so the
   [select] reference) and [best_closed] both evaluate it, so the two
   agree bit for bit.  Inlined so the pass below keeps the float unboxed. *)
let[@inline] score_of policy ~now_ns ~lt_ns ~live ~nslots =
  let u = float_of_int live /. float_of_int nslots in
  match policy with
  | Greedy -> 1.0 -. u
  | Cost_benefit ->
    let age = float_of_int (Int.max 0 (now_ns - lt_ns)) /. 1e9 in
    (* +1s keeps brand-new segments from scoring zero across the board. *)
    (age +. 1.0) *. (1.0 -. u) /. (1.0 +. u)

let score policy ~now seg =
  score_of policy ~now_ns:(now : Time.t :> int)
    ~lt_ns:(Segment.last_touched seg :> int)
    ~live:(Segment.live_count seg) ~nslots:(Segment.nslots seg)

let select policy ~now ~eligible segments =
  Array.fold_left
    (fun best seg ->
      if Segment.state seg <> Segment.Closed || not (eligible seg) then best
      else begin
        let s = score policy ~now seg in
        match best with
        | Some (_, best_score) when best_score >= s -> best
        | Some _ | None -> Some (seg, s)
      end)
    None segments
  |> Option.map fst

let best_closed policy ~now ~candidate ~segs_per_bank ~allowed segments =
  let now_ns = (now : Time.t :> int) in
  let n = Array.length segments in
  let best_id = ref (-1) in
  let best_score = ref neg_infinity in
  for bank = 0 to ((n + segs_per_bank - 1) / segs_per_bank) - 1 do
    let lo = bank * segs_per_bank in
    if allowed ~bank then
      for id = lo to Int.min n (lo + segs_per_bank) - 1 do
        if candidate.(id) then begin
          let seg = segments.(id) in
          let s =
            score_of policy ~now_ns
              ~lt_ns:(Segment.last_touched seg :> int)
              ~live:(Segment.live_count seg) ~nslots:(Segment.nslots seg)
          in
          (* Strictly higher only: ids ascend, so ties keep the lowest. *)
          if s > !best_score then begin
            best_id := id;
            best_score := s
          end
        end
      done
  done;
  !best_id

let write_amplification ~blocks_written ~blocks_flushed =
  if blocks_flushed = 0 then 1.0
  else float_of_int blocks_written /. float_of_int blocks_flushed
