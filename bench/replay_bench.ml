(* The two feeders of the one replay loop, A/B on the same trace and
   machine config:

   - streamed: [Machine.run_seq] — lowers each record as it is pulled
     ([Trace.Replay.Compiled.lower]);
   - compiled: [Machine.run_compiled] over a [Trace.Replay.Compiled] trace
     lowered once up front — the loop indexes flat arrays.

   Both feed the same per-record step, so they are byte-identical in every
   simulated quantity (asserted below; the test suite checks both against a
   path-walk reference), and the only difference is wall-clock: what
   per-record lowering costs.  The trace is 10x the E6 workload
   (engineering profile), long enough that steady-state throughput
   dominates machine setup. *)
open Sim

(* 10x E6's duration (E6 uses 20 min; QUICK scales both the same way). *)
let duration = Common.minutes 200.0

let run () =
  Common.section "replay feeders: streamed vs compiled (A/B, same trace)";
  let trace =
    Trace.Synth.generate Trace.Workloads.engineering ~rng:(Rng.create ~seed:61)
      ~duration
  in
  let records = trace.Trace.Synth.records in
  let n = List.length records in
  let compiled = Trace.Replay.Compiled.compile records in
  let time_run driver =
    (* 10x the workload needs more than E6's 20 MB of flash to hold the
       live set; the feeder comparison does not care about cleaning
       pressure, only that both feeders see the same machine. *)
    let machine =
      Ssmc.Machine.create (Ssmc.Config.solid_state ~flash_mb:256 ~dram_mb:32 ~seed:61 ())
    in
    Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
    let t0 = Unix.gettimeofday () in
    let result = driver machine in
    (Unix.gettimeofday () -. t0, result)
  in
  (* Keep each feeder's best time: the per-record difference is a few
     percent, comparable to major-GC jitter, so a single back-to-back pair
     routinely reads backwards. *)
  let reps = 3 in
  let best driver =
    let best_s = ref infinity and result = ref None in
    for _ = 1 to reps do
      Gc.compact ();
      let s, r = time_run driver in
      if s < !best_s then begin
        best_s := s;
        result := Some r
      end
    done;
    (!best_s, Option.get !result)
  in
  let streamed_s, rs = best (fun m -> Ssmc.Machine.run_seq m (List.to_seq records)) in
  let compiled_s, rc = best (fun m -> Ssmc.Machine.run_compiled m compiled) in
  (* A/B integrity: a faster feeder that simulates something different is
     not a speedup, it is a bug. *)
  if
    rs.Ssmc.Machine.ops_applied <> rc.Ssmc.Machine.ops_applied
    || rs.Ssmc.Machine.op_errors <> rc.Ssmc.Machine.op_errors
    || Time.span_to_us rs.Ssmc.Machine.busy <> Time.span_to_us rc.Ssmc.Machine.busy
    || rs.Ssmc.Machine.energy_j <> rc.Ssmc.Machine.energy_j
  then failwith "replay bench: compiled feeder diverged from streamed";
  let rate s = if s > 0.0 then float_of_int n /. s else Float.infinity in
  let streamed_rps = rate streamed_s in
  let compiled_rps = rate compiled_s in
  let speedup = if streamed_s > 0.0 then streamed_s /. compiled_s else Float.nan in
  let table =
    Table.create ~title:"end-to-end replay (same trace, same machine config)"
      ~columns:
        [
          ("feeder", Table.Left);
          ("records", Table.Right);
          ("wall s", Table.Right);
          ("records/s", Table.Right);
        ]
  in
  Table.add_row table
    [ "streamed"; string_of_int n; Printf.sprintf "%.2f" streamed_s;
      Printf.sprintf "%.0f" streamed_rps ];
  Table.add_row table
    [ "compiled"; string_of_int n; Printf.sprintf "%.2f" compiled_s;
      Printf.sprintf "%.0f" compiled_rps ];
  Table.print table;
  Common.put_metric "replay_streamed_records_per_s" streamed_rps;
  Common.put_metric "replay_compiled_records_per_s" compiled_rps;
  Common.put_metric "replay_compiled_speedup" speedup;
  Common.note "compiled feeder: %.2fx the streamed feeder (%d records)" speedup n;
  Common.note "results byte-identical across feeders (asserted)"
