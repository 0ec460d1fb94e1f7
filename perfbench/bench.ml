(* The repository benchmark: one workload per invocation, timed from the
   outside around calls into each layer's public functions.

     bench.exe --workload replay-eng|db-parity|fleet --seed N --seconds S
               --trace 0|1 [--scale full|small] [--rev REV]

   --trace 0 measures the end-to-end metrics with every probe off.
   --trace 1 runs the workload once as measured, then again through the
   benchmark's own replay loop (or, for the fleet, device by device), and
   reports the per-layer ledger.  Both modes check the simulator's outputs;
   any failed check prints [correct: false] and exits 1.  The last line of
   standard output is the result object; everything before it is a
   human-readable log plus one [manifest] line.  See README.md. *)

open Sim
module Compiled = Trace.Replay.Compiled
module Machine = Ssmc.Machine
module Fleet = Ssmc.Fleet

(* --- Clock and small statistics ------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs_since t0)

(* Process CPU time, for the end-to-end figures: on a shared virtual
   machine the wall time of one input moved up to threefold within minutes
   (time stolen by the host), while its CPU time moved a few percent. *)
let cpu_timed f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

let median = function
  | [] -> invalid_arg "median: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank, the convention [Stat.Histogram.quantile] uses. *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let heap_mb () = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* --- Checks ---------------------------------------------------------------- *)

let failures = ref []

let check ok fmt =
  Format.kasprintf
    (fun msg ->
      if not ok then begin
        failures := msg :: !failures;
        Format.printf "CHECK FAILED: %s@." msg
      end)
    fmt

(* --- Workloads ------------------------------------------------------------- *)

type scale = Full | Small

type replay_workload = {
  profile : Trace.Synth.profile;
  minutes : float;
  config : seed:int -> Ssmc.Config.t;
}

type workload = Replay of replay_workload | Fleet_run of { devices : int; shard : int }

(* Default and held-out seeds per workload; README.md records the same. *)
let workloads =
  [
    ("replay-eng", (61, 62));
    ("db-parity", (7, 8));
    ("fleet", (1993, 1994));
  ]

let minutes_of = function Full -> fun m -> m | Small -> fun m -> Float.min m 5.0

let workload_of name scale =
  match name with
  | "replay-eng" ->
    Replay
      {
        profile = Trace.Workloads.engineering;
        minutes = minutes_of scale 200.0;
        config =
          (fun ~seed -> Ssmc.Config.solid_state ~flash_mb:256 ~dram_mb:32 ~seed ());
      }
  | "db-parity" ->
    let manager =
      {
        Storage.Manager.default_config with
        Storage.Manager.diff_log = Some Storage.Diff_log.default_config;
      }
    in
    Replay
      {
        profile = Trace.Workloads.database;
        minutes = minutes_of scale 60.0;
        config =
          (fun ~seed ->
            Ssmc.Config.solid_state ~flash_mb:24 ~cards:4
              ~striping:(Storage.Striping.Parity { strip_blocks = 4; rotate = true })
              ~front_cache_blocks:256 ~manager ~seed ());
      }
  | "fleet" -> (
    match scale with
    | Full -> Fleet_run { devices = 128; shard = 32 }
    | Small -> Fleet_run { devices = 6; shard = 2 })
  | other -> invalid_arg ("workload_of: " ^ other)

(* The end-to-end fleet runs on one domain: at two, the minor collections'
   stop-the-world barrier waits on whichever vCPU the host has preempted,
   and one input's wall time moved from 3.3 s to 9.8 s within minutes.
   The traced run times the pool at this many jobs against one. *)
let fleet_jobs = min 2 (Domain.recommended_domain_count ())
let fleet_minutes = 2.0

let fleet_spec ~devices ~shard ~seed =
  Fleet.spec ~devices ~shard ~base_seed:seed
    ~duration:(Time.span_s (60.0 *. fleet_minutes))
    ~faults_per_device:1 ()

(* --- Replay set-up ---------------------------------------------------------- *)

type setup = {
  compiled : Compiled.t;
  initial_files : (int * int) list;
  user_bytes : int;  (* Bytes the trace's write records write. *)
  gen_s : float;
  compile_s : float;
}

let user_bytes_of (c : Compiled.t) =
  let total = ref 0 in
  for i = 0 to c.Compiled.n - 1 do
    if c.Compiled.tag.(i) = Compiled.tag_write then total := !total + c.Compiled.arg2.(i)
  done;
  !total

(* [split] times generation and lowering apart by materializing the
   records first (the traced run's ledger); otherwise the lazy stream is
   lowered as it is generated, and [compile_s] holds both. *)
let make_trace ?(split = false) w ~seed =
  let t0 = now_ns () in
  let stream =
    Trace.Synth.generate_seq w.profile ~rng:(Rng.create ~seed)
      ~duration:(Time.span_s (60.0 *. w.minutes))
  in
  let seq =
    if split then List.to_seq (List.of_seq stream.Trace.Synth.seq)
    else stream.Trace.Synth.seq
  in
  let gen_s = secs_since t0 in
  let compiled, compile_s = timed (fun () -> Compiled.compile_seq seq) in
  {
    compiled;
    initial_files = stream.Trace.Synth.stream_initial_files;
    user_bytes = user_bytes_of compiled;
    gen_s;
    compile_s;
  }

let make_machine w ~seed files =
  let machine, create_s = timed (fun () -> Machine.create (w.config ~seed)) in
  let (), preload_s = timed (fun () -> Machine.preload machine files) in
  (machine, create_s, preload_s)

let memfs_exn machine =
  match Machine.memfs machine with
  | Some m -> m
  | None -> failwith "solid-state machine without a memory file system"

let store_exn machine =
  match Machine.store machine with
  | Some s -> s
  | None -> failwith "solid-state machine without a block store"

let flash_bytes machine =
  Array.fold_left (fun acc f -> acc + Device.Flash.bytes_programmed f) 0
    (Machine.flashes machine)

let check_fs what machine =
  match Fs.Memfs.check (memfs_exn machine) with
  | Ok () -> ()
  | Error e -> check false "%s: Memfs.check: %s" what e

(* What two runs of one trace on one configuration must agree on. *)
type fingerprint = {
  ops : int;
  errors : int;
  busy_ns : int;
  energy_j : float;
  stats : Storage.Manager.stats;
  flash_programmed : int;
}

let fingerprint_of_result machine (r : Machine.result) =
  {
    ops = r.Machine.ops_applied;
    errors = r.Machine.op_errors;
    busy_ns = Time.span_to_ns r.Machine.busy;
    energy_j = r.Machine.energy_j;
    stats = Storage.Store.stats (store_exn machine);
    flash_programmed = flash_bytes machine;
  }

let check_same what (a : fingerprint) (b : fingerprint) =
  check (a.ops = b.ops) "%s: ops %d vs %d" what a.ops b.ops;
  check (a.errors = b.errors) "%s: op errors %d vs %d" what a.errors b.errors;
  check (a.busy_ns = b.busy_ns) "%s: busy %d ns vs %d ns" what a.busy_ns b.busy_ns;
  check (a.energy_j = b.energy_j) "%s: energy %.17g J vs %.17g J" what a.energy_j
    b.energy_j;
  check (a.stats = b.stats) "%s: Store.stats differ" what;
  check
    (a.flash_programmed = b.flash_programmed)
    "%s: flash bytes programmed %d vs %d" what a.flash_programmed b.flash_programmed

(* --- The traced replay loop --------------------------------------------------

   The same calls [Machine.run_compiled] makes, in the same order — the
   engine catch-up, the [Memfs] routed operation, the closed-loop advance,
   the 60 s accounting tick and the 120 s drain — with a monotonic-clock
   stamp around each.  The probe observations [run_compiled] issues are
   mirrored by name so a metrics-on snapshot holds the same counters. *)

let p_ops = Probe.counter "machine.ops"
let p_op_errors = Probe.counter "machine.op_errors"
let p_read_us = Probe.summary "machine.read_latency_us"
let p_write_us = Probe.summary "machine.write_latency_us"
let p_meta_us = Probe.summary "machine.meta_latency_us"
let ph_read_us = Probe.histogram "machine.read_hist_us"
let ph_write_us = Probe.histogram "machine.write_hist_us"

type traced = {
  t_fp : fingerprint;
  t_wall_s : float;
  t_engine_s : float;  (* Engine.run_until inside the loop. *)
  t_drain_s : float;  (* The final drain. *)
  host_ns : int array;  (* Per record: the Memfs call(s). *)
  sim_us : float array;  (* Per record: simulated latency. *)
  t_pending_entries : int;  (* Write-buffer queue after the last record. *)
}

let traced_replay machine (c : Compiled.t) =
  let drain = Time.span_s 120.0 in
  let t_start = now_ns () in
  let engine = Machine.engine machine in
  let started = Engine.now engine in
  let offset_ns = Time.to_ns started in
  let accounting_done = ref false in
  let rec account_tick engine =
    if not !accounting_done then begin
      Machine.account machine;
      ignore (Engine.schedule_after engine ~after:(Time.span_s 60.0) account_tick)
    end
  in
  ignore (Engine.schedule_after engine ~after:(Time.span_s 60.0) account_tick);
  let engine_ns = ref 0 in
  let run_until at =
    let t0 = now_ns () in
    Engine.run_until engine at;
    engine_ns := !engine_ns + (now_ns () - t0)
  in
  let n = c.Compiled.n in
  let host_ns = Array.make n 0 and sim_us = Array.make n 0.0 in
  let errors = ref 0 and busy = ref Time.span_zero and last_at = ref started in
  let names = Hashtbl.create 4096 in
  let leaf id =
    match Hashtbl.find_opt names id with
    | Some s -> s
    | None ->
      let s = "f" ^ string_of_int id in
      Hashtbl.add names id s;
      s
  in
  (* Rebuilt whenever the machine's file system is replaced. *)
  let route = ref None in
  let dir m =
    match !route with
    | Some (m', d) when m' == m -> d
    | _ -> (
      match Fs.Memfs.route m "/data" with
      | Ok d ->
        route := Some (m, d);
        d
      | Error e -> Fmt.failwith "route /data: %a" Fs.Fs_error.pp e)
  in
  let span_or_error = function
    | Ok span -> span
    | Error _ ->
      incr errors;
      Probe.incr p_op_errors;
      Time.span_zero
  in
  for i = 0 to n - 1 do
    let at = Time.of_ns (c.Compiled.at_ns.(i) + offset_ns) in
    if Time.( < ) (Engine.now engine) at then run_until at;
    last_at := at;
    let m = memfs_exn machine in
    let d = dir m in
    Probe.incr p_ops;
    let name = leaf c.Compiled.file.(i) in
    let tag = c.Compiled.tag.(i) in
    let arg1 = c.Compiled.arg1.(i) and arg2 = c.Compiled.arg2.(i) in
    let t0 = now_ns () in
    let span =
      if tag = Compiled.tag_write then begin
        let create_span =
          if Fs.Memfs.exists_in m d name then Time.span_zero
          else span_or_error (Fs.Memfs.create_in m d name)
        in
        Time.span_add create_span
          (span_or_error (Fs.Memfs.write_in m d name ~offset:arg1 ~bytes:arg2))
      end
      else if tag = Compiled.tag_read then
        span_or_error (Fs.Memfs.read_in m d name ~offset:arg1 ~bytes:arg2)
      else if tag = Compiled.tag_create then span_or_error (Fs.Memfs.create_in m d name)
      else if tag = Compiled.tag_truncate then
        span_or_error (Fs.Memfs.truncate_in m d name ~size:arg1)
      else span_or_error (Fs.Memfs.unlink_in m d name)
    in
    host_ns.(i) <- now_ns () - t0;
    busy := Time.span_add !busy span;
    let us = Time.span_to_us span in
    sim_us.(i) <- us;
    if tag = Compiled.tag_read then begin
      Probe.observe p_read_us us;
      Probe.observe_hist ph_read_us us
    end
    else if tag = Compiled.tag_write then begin
      Probe.observe p_write_us us;
      Probe.observe_hist ph_write_us us
    end
    else Probe.observe p_meta_us us;
    run_until (Time.add (Engine.now engine) span)
  done;
  let pending =
    Array.fold_left
      (fun acc m -> acc + Storage.Manager.buffer_pending_entries m)
      0
      (Storage.Store.managers (store_exn machine))
  in
  let loop_engine_ns = !engine_ns in
  run_until (Time.add !last_at drain);
  accounting_done := true;
  Machine.account machine;
  let energy_j =
    Device.Power.Meter.total_joules (Device.Dram.meter (Machine.dram machine))
    +. Array.fold_left
         (fun acc f -> acc +. Device.Power.Meter.total_joules (Device.Flash.meter f))
         0.0 (Machine.flashes machine)
  in
  let t_wall_s = secs_since t_start in
  {
    t_fp =
      {
        ops = n;
        errors = !errors;
        busy_ns = Time.span_to_ns !busy;
        energy_j;
        stats = Storage.Store.stats (store_exn machine);
        flash_programmed = flash_bytes machine;
      };
    t_wall_s;
    t_engine_s = fi loop_engine_ns *. 1e-9;
    t_drain_s = fi (!engine_ns - loop_engine_ns) *. 1e-9;
    host_ns;
    sim_us;
    t_pending_entries = pending;
  }

(* --- Output ------------------------------------------------------------------- *)

(* Every metric the benchmark reports, with its unit; BENCHMARK.json lists
   the same names and units. *)
let end_to_end =
  [
    ("records_per_cpu_s", "1/s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("flash_bytes_per_user_byte", "ratio");
  ]

(* A traced run reports all of these; a layer its workload does not reach
   reads 0. *)
let per_layer =
  [
    ("trace.gen_s", "s");
    ("trace.compile_s", "s");
    ("core.create_s", "s");
    ("core.preload_s", "s");
    ("core.replay_s", "s");
    ("core.alloc_words_per_record", "words");
    ("fs.write_ns_p50", "ns");
    ("fs.write_ns_p99", "ns");
    ("fs.write_share", "ratio");
    ("fs.read_ns_p50", "ns");
    ("fs.read_ns_p99", "ns");
    ("fs.read_share", "ratio");
    ("fs.meta_ns_p50", "ns");
    ("fs.meta_ns_p99", "ns");
    ("fs.meta_share", "ratio");
    ("sim.engine_ns_per_record", "ns");
    ("sim.engine_share", "ratio");
    ("sim.drain_s", "s");
    ("sim.read_us_mean", "us");
    ("sim.write_us_mean", "us");
    ("sim.energy_j", "J");
    ("sim.read_p50_us", "us");
    ("sim.read_p99_us", "us");
    ("sim.write_p50_us", "us");
    ("sim.write_p99_us", "us");
    ("sim.stat.hist_p99_rel_err", "ratio");
    ("storage.absorbed_ratio", "ratio");
    ("storage.write_buffer.pending_entries", "count");
    ("storage.clean_ops", "count");
    ("storage.cleaned_per_flushed", "ratio");
    ("storage.front_cache_hit_ratio", "ratio");
    ("storage.parity_writes", "count");
    ("storage.diff.deltas_flushed", "count");
    ("storage.diff.merges", "count");
    ("storage.heat.swept", "count");
    ("storage.heat.tracked", "count");
    ("device.flash.programs", "count");
    ("device.flash.erases", "count");
    ("device.dram.reads", "count");
    ("fleet.run_s", "s");
    ("fleet.jobs1_run_s", "s");
    ("fleet.device_ms_p50", "ms");
    ("fleet.device_ms_p99", "ms");
    ("fleet.pool_efficiency", "ratio");
    ("fleet.faults", "count");
    ("fleet.cold_restarts", "count");
    ("bench.unaccounted_share", "ratio");
    ("trace_overhead", "ratio");
  ]

(* [zero_missing]: a metric the run did not measure reads 0 (per-layer
   tables); otherwise it is a failure. *)
let print_result ~attempted ~failed ~table ~zero_missing (values : (string * float) list) =
  List.iter
    (fun (name, _) ->
      check (List.mem_assoc name table) "metric %s is not in the metric table" name)
    values;
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v -> v
          | None when zero_missing -> 0.0
          | None ->
            check false "end-to-end metric %s was not measured" name;
            Float.nan
        in
        check (Float.is_finite v) "metric %s is not finite" name;
        Format.printf "  %-40s %.6g %s@." name v unit;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
          unit)
      table
  in
  let correct = !failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " metrics);
  if not correct then exit 1

let print_manifest fields =
  Format.printf "manifest: %s@."
    (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) fields)))

(* --- Replay workloads ------------------------------------------------------- *)

(* One run measures [inputs] different inputs, derived from the seed, so a
   single unusual trace or fleet cannot swing the figure: the per-seed
   spread of the work itself is a few times the run-to-run noise.  Input
   [k] is built from [input_seed seed k]; input 0 is the seed's own. *)
let inputs = 3
let input_seed seed k = seed + (1000 * k)

(* Measure input [k mod inputs] on repetition [k] until [seconds] have gone
   and every input ran at least once; returns each input's samples in
   repetition order.  A faster program takes more samples per input, never
   other inputs. *)
let cycle ~seconds measure =
  let samples = Array.make inputs [] in
  let t_start = now_ns () in
  let reps = ref 0 in
  while !reps < inputs || secs_since t_start < seconds do
    let k = !reps mod inputs in
    Gc.compact ();
    samples.(k) <- measure k :: samples.(k);
    incr reps
  done;
  Format.printf "%d repetitions over %d inputs@." !reps inputs;
  Array.to_list (Array.map List.rev samples)

(* Every repetition of one input must reproduce its first simulated output. *)
let check_repeats same samples =
  match samples with [] -> () | first :: rest -> List.iter (same first) rest

let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

type replay_sample = {
  r_setup_s : float list;
  r_run_s : float;
  r_fp : fingerprint;
  r_user_bytes : int;
}

let replay_end_to_end w ~seed ~seconds =
  (* Each repetition repeats the whole set-up (trace generation, compile,
     machine create, preload) and the measured replay.  The peak heap is
     read after the first replay, while the process has built one machine:
     OCaml 5.1 never shrinks the heap, so later set-ups would raise it. *)
  let peak_mb = ref None in
  let per_input =
    cycle ~seconds (fun k ->
        let seed = input_seed seed k in
        let setup () =
          Gc.compact ();
          let (s, machine), t =
            cpu_timed (fun () ->
                let s = make_trace w ~seed in
                let machine, _, _ = make_machine w ~seed s.initial_files in
                (s, machine))
          in
          (s, machine, t)
        in
        let s, machine, s1 = setup () in
        let result, r_run_s = cpu_timed (fun () -> Machine.run_compiled machine s.compiled) in
        if !peak_mb = None then peak_mb := Some (heap_mb ());
        let n = Compiled.length s.compiled in
        check (result.Machine.ops_applied = n) "seed %d: ops_applied %d <> trace length %d"
          seed result.Machine.ops_applied n;
        check_fs "measured run" machine;
        let r_fp = fingerprint_of_result machine result in
        Format.printf "input %d: set-up %.3f CPU s, replay %.3f CPU s@." k s1 r_run_s;
        (* Set-up is short and noisy next to the replay: time it twice more,
           after the replay so the peak heap above is one set-up's. *)
        let third (_, _, t) = t in
        let s2 = third (setup ()) in
        let s3 = third (setup ()) in
        { r_setup_s = [ s1; s2; s3 ]; r_run_s; r_fp; r_user_bytes = s.user_bytes })
  in
  List.iter
    (check_repeats (fun a b -> check_same "repeated measured run" a.r_fp b.r_fp))
    per_input;
  let firsts = List.map List.hd per_input in
  let ops = List.fold_left (fun acc x -> acc + x.r_fp.ops) 0 firsts in
  let errors = List.fold_left (fun acc x -> acc + x.r_fp.errors) 0 firsts in
  let run_s = List.map (fun xs -> median (List.map (fun x -> x.r_run_s) xs)) per_input in
  Format.printf "replay: %d records, %d op errors@." ops errors;
  ( ops,
    errors,
    [
      ("records_per_cpu_s", fi ops /. List.fold_left ( +. ) 0.0 run_s);
      ("setup_s", median (List.concat_map (List.concat_map (fun x -> x.r_setup_s)) per_input));
      ("peak_heap_mb", Option.get !peak_mb);
      ( "flash_bytes_per_user_byte",
        sum_by (fun x -> fi x.r_fp.flash_programmed) firsts
        /. sum_by (fun x -> fi x.r_user_bytes) firsts );
    ] )

let counter snap name = fi (Probe.Snapshot.counter_value snap name)

let gauge snap name =
  match Probe.Snapshot.find snap name with
  | Some (Probe.Snapshot.Gauge v) -> v
  | _ -> 0.0

let replay_per_layer w ~seed =
  let s = make_trace ~split:true w ~seed in
  let machine, create_s, preload_s = make_machine w ~seed s.initial_files in
  let n = Compiled.length s.compiled in
  Gc.compact ();
  let minor0 = Gc.minor_words () in
  let result, measured_s = timed (fun () -> Machine.run_compiled machine s.compiled) in
  let minor_words = Gc.minor_words () -. minor0 in
  check (result.Machine.ops_applied = n) "ops_applied %d <> trace length %d"
    result.Machine.ops_applied n;
  check_fs "measured run" machine;
  let measured = fingerprint_of_result machine result in
  (* The traced twin: a fresh machine, probes on. *)
  Gc.compact ();
  Probe.set_metrics true;
  let twin, _, _ = make_machine w ~seed s.initial_files in
  let tr = traced_replay twin s.compiled in
  let snap = Probe.snapshot () in
  Probe.set_metrics false;
  check_fs "traced run" twin;
  check_same "traced vs measured" measured tr.t_fp;
  (* Exact simulated percentiles and per-layer host times by op class. *)
  let klass tag =
    if tag = Compiled.tag_write then `Write
    else if tag = Compiled.tag_read then `Read
    else `Meta
  in
  let pick k f =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if klass s.compiled.Compiled.tag.(i) = k then acc := f i :: !acc
    done;
    !acc
  in
  let host k = sorted_of_list (pick k (fun i -> fi tr.host_ns.(i))) in
  let sim k = sorted_of_list (pick k (fun i -> tr.sim_us.(i))) in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  let hw = host `Write and hr = host `Read and hm = host `Meta in
  let sw = sim `Write and sr = sim `Read in
  let share ns = ratio (ns *. 1e-9) tr.t_wall_s in
  let engine_s = tr.t_engine_s +. tr.t_drain_s in
  let unaccounted =
    tr.t_wall_s -. engine_s -. ((sum hw +. sum hr +. sum hm) *. 1e-9)
  in
  let exact_w99 = exact_quantile sw 0.99 and exact_r99 = exact_quantile sr 0.99 in
  let rel_err hist exact =
    if exact = 0.0 then 0.0 else Float.abs (Stat.Histogram.quantile hist 0.99 -. exact) /. exact
  in
  let st = tr.t_fp.stats in
  let store = store_exn twin in
  let parity_writes =
    match Storage.Store.parity_stats store with
    | Some p -> p.Storage.Array.parity_writes
    | None -> 0
  in
  let diff f = match Storage.Store.diff_stats store with Some d -> f d | None -> 0 in
  let fc_hits = counter snap "storage.front_cache.hits"
  and fc_misses = counter snap "storage.front_cache.misses" in
  let flashes = Machine.flashes twin in
  let flash_sum f = fi (Array.fold_left (fun acc x -> acc + f x) 0 flashes) in
  Format.printf
    "traced: wall %.3f s (measured %.3f s); write %.1f%% read %.1f%% meta %.1f%% \
     engine %.1f%% unaccounted %.1f%%@."
    tr.t_wall_s measured_s
    (100.0 *. share (sum hw))
    (100.0 *. share (sum hr))
    (100.0 *. share (sum hm))
    (100.0 *. ratio engine_s tr.t_wall_s)
    (100.0 *. ratio unaccounted tr.t_wall_s);
  ( n,
    measured.errors,
    [
      ("trace.gen_s", s.gen_s);
      ("trace.compile_s", s.compile_s);
      ("core.create_s", create_s);
      ("core.preload_s", preload_s);
      ("core.replay_s", measured_s);
      ("core.alloc_words_per_record", ratio minor_words (fi n));
      ("fs.write_ns_p50", exact_quantile hw 0.5);
      ("fs.write_ns_p99", exact_quantile hw 0.99);
      ("fs.write_share", share (sum hw));
      ("fs.read_ns_p50", exact_quantile hr 0.5);
      ("fs.read_ns_p99", exact_quantile hr 0.99);
      ("fs.read_share", share (sum hr));
      ("fs.meta_ns_p50", exact_quantile hm 0.5);
      ("fs.meta_ns_p99", exact_quantile hm 0.99);
      ("fs.meta_share", share (sum hm));
      ("sim.engine_ns_per_record", ratio (engine_s *. 1e9) (fi n));
      ("sim.engine_share", ratio engine_s tr.t_wall_s);
      ("sim.drain_s", tr.t_drain_s);
      ("sim.read_us_mean", Stat.Summary.mean result.Machine.read_latency);
      ("sim.write_us_mean", Stat.Summary.mean result.Machine.write_latency);
      ("sim.energy_j", result.Machine.energy_j);
      ("sim.read_p50_us", exact_quantile sr 0.5);
      ("sim.read_p99_us", exact_r99);
      ("sim.write_p50_us", exact_quantile sw 0.5);
      ("sim.write_p99_us", exact_w99);
      ( "sim.stat.hist_p99_rel_err",
        Float.max
          (rel_err result.Machine.read_hist_us exact_r99)
          (rel_err result.Machine.write_hist_us exact_w99));
      ( "storage.absorbed_ratio",
        ratio (fi st.Storage.Manager.absorbed_writes) (fi st.Storage.Manager.client_writes));
      ("storage.write_buffer.pending_entries", fi tr.t_pending_entries);
      ("storage.clean_ops", fi st.Storage.Manager.cleanings);
      ( "storage.cleaned_per_flushed",
        ratio (fi st.Storage.Manager.blocks_cleaned) (fi st.Storage.Manager.blocks_flushed));
      ("storage.front_cache_hit_ratio", ratio fc_hits (fc_hits +. fc_misses));
      ("storage.parity_writes", fi parity_writes);
      ("storage.diff.deltas_flushed", fi (diff (fun d -> d.Storage.Diff_log.deltas_flushed)));
      ("storage.diff.merges", fi (diff (fun d -> d.Storage.Diff_log.merges)));
      ("storage.heat.swept", counter snap "storage.heat.swept");
      ("storage.heat.tracked", gauge snap "storage.heat.tracked");
      ("device.flash.programs", flash_sum Device.Flash.programs);
      ("device.flash.erases", flash_sum Device.Flash.erases);
      ("device.dram.reads", fi (Device.Dram.reads (Machine.dram twin)));
      ("bench.unaccounted_share", ratio unaccounted tr.t_wall_s);
      ("trace_overhead", ratio tr.t_wall_s measured_s);
    ] )

(* --- Fleet workload ------------------------------------------------------------ *)

(* The fleet builds every device inside its pool loop, so its set-up has
   no seam of its own; the benchmark times the same per-device set-up
   (trace generation, compile, machine create, preload) for one device of
   each default hardware model, running the model's first workload. *)
let fleet_device_setup ~seed =
  List.iter
    (fun (v : Fleet.variant) ->
      let profile =
        match v.Fleet.v_mix with
        | Some ((_, p) :: _) -> p
        | Some [] | None -> Trace.Workloads.engineering
      in
      let manager =
        Option.map
          (fun kb ->
            {
              Storage.Manager.default_config with
              Storage.Manager.buffer =
                {
                  Storage.Write_buffer.default_config with
                  Storage.Write_buffer.capacity_blocks =
                    kb * 1024 / v.Fleet.v_flash_spec.Device.Specs.f_sector_bytes;
                };
            })
          v.Fleet.v_buffer_kb
      in
      let cfg =
        Ssmc.Config.solid_state ~name:v.Fleet.v_name ~dram_mb:v.Fleet.v_dram_mb
          ~flash_mb:v.Fleet.v_flash_mb ~nbanks:v.Fleet.v_nbanks
          ~flash_spec:v.Fleet.v_flash_spec
          ?endurance_override:v.Fleet.v_endurance_override ?manager ~seed ()
      in
      let stream =
        Trace.Synth.generate_seq profile ~rng:(Rng.create ~seed)
          ~duration:(Time.span_s (60.0 *. fleet_minutes))
      in
      let machine = Machine.create cfg in
      Machine.preload machine stream.Trace.Synth.stream_initial_files;
      let compiled = Compiled.compile_seq stream.Trace.Synth.seq in
      ignore (Sys.opaque_identity (machine, compiled)))
    Fleet.default_variants

let fleet_fingerprint (r : Fleet.report) =
  ( r.Fleet.ops,
    r.Fleet.op_errors,
    r.Fleet.out_of_space,
    Stat.Summary.mean r.Fleet.read_us,
    Stat.Summary.mean r.Fleet.write_us,
    Stat.Summary.mean r.Fleet.energy_j,
    Stat.Summary.mean r.Fleet.write_amp )

let fleet_attempted (r : Fleet.report) = r.Fleet.ops + r.Fleet.out_of_space
let fleet_failed (r : Fleet.report) = r.Fleet.op_errors + r.Fleet.out_of_space

let fleet_end_to_end ~devices ~shard ~seed ~seconds =
  (* Warm up untimed: the first devices in a process also grow the heap. *)
  ignore (Fleet.run ~jobs:1 (fleet_spec ~devices:(min devices shard) ~shard ~seed));
  let per_input =
    cycle ~seconds (fun k ->
        let spec = fleet_spec ~devices ~shard ~seed:(input_seed seed k) in
        let ((_, cpu) as run) = cpu_timed (fun () -> Fleet.run ~jobs:1 spec) in
        Format.printf "input %d: Fleet.run %.3f CPU s@." k cpu;
        run)
  in
  (* The most any one run needed: the heap never shrinks. *)
  let peak_mb = heap_mb () in
  let setups =
    List.init (3 * inputs) (fun i ->
        snd (cpu_timed (fun () -> fleet_device_setup ~seed:(input_seed seed (i mod inputs)))))
  in
  List.iter
    (check_repeats (fun (a, _) (b, _) ->
         check (fleet_fingerprint a = fleet_fingerprint b) "repeated Fleet.run differs"))
    per_input;
  let firsts = List.map (fun xs -> fst (List.hd xs)) per_input in
  let cpu = sum_by (fun xs -> median (List.map snd xs)) per_input in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 firsts in
  let ops = total (fun r -> r.Fleet.ops) in
  Format.printf "fleet: %d devices, %d ops, %d out of space, %.1f devices per CPU s@."
    (inputs * devices) ops
    (total (fun r -> r.Fleet.out_of_space))
    (fi (inputs * devices) /. cpu);
  ( total fleet_attempted,
    total fleet_failed,
    [
      ("records_per_cpu_s", fi ops /. cpu);
      ("setup_s", median setups);
      ("peak_heap_mb", peak_mb);
      ( "flash_bytes_per_user_byte",
        sum_by (fun r -> Stat.Summary.mean r.Fleet.write_amp) firsts /. fi inputs );
    ] )

let fleet_per_layer ~devices ~shard ~seed =
  let spec = fleet_spec ~devices ~shard ~seed in
  Gc.compact ();
  let r, wall = timed (fun () -> Fleet.run ~jobs:fleet_jobs spec) in
  Gc.compact ();
  let r1, wall1 = timed (fun () -> Fleet.run ~jobs:1 spec) in
  check (fleet_fingerprint r = fleet_fingerprint r1) "Fleet.run differs across job counts";
  (* The traced pass: every device alone, in index order, on this domain. *)
  Gc.compact ();
  let t_serial = now_ns () in
  let reports =
    List.init devices (fun index -> timed (fun () -> Fleet.simulate_device spec ~index))
  in
  let serial_s = secs_since t_serial in
  let sum f = List.fold_left (fun acc (d, _) -> acc + f d) 0 reports in
  let ops = sum (fun d -> d.Fleet.d_ops)
  and op_errors = sum (fun d -> d.Fleet.d_op_errors)
  and oos = sum (fun d -> if d.Fleet.d_out_of_space then 1 else 0) in
  check (ops = r.Fleet.ops) "serial device ops %d <> Fleet.run ops %d" ops r.Fleet.ops;
  check (op_errors = r.Fleet.op_errors) "serial op errors %d <> Fleet.run %d" op_errors
    r.Fleet.op_errors;
  check (oos = r.Fleet.out_of_space) "serial out-of-space %d <> Fleet.run %d" oos
    r.Fleet.out_of_space;
  let device_ms = sorted_of_list (List.map (fun (_, s) -> s *. 1000.0) reports) in
  let device_s = Array.fold_left ( +. ) 0.0 device_ms /. 1000.0 in
  Format.printf
    "fleet traced: Fleet.run %.3f s on %d jobs, %.3f s on 1 job, device by device %.3f s@."
    wall fleet_jobs wall1 serial_s;
  ( fleet_attempted r,
    fleet_failed r,
    [
      ("sim.read_us_mean", Stat.Summary.mean r.Fleet.read_us);
      ("sim.write_us_mean", Stat.Summary.mean r.Fleet.write_us);
      ("sim.energy_j", Stat.Summary.mean r.Fleet.energy_j);
      ("fleet.run_s", wall);
      ("fleet.jobs1_run_s", wall1);
      ("fleet.device_ms_p50", exact_quantile device_ms 0.5);
      ("fleet.device_ms_p99", exact_quantile device_ms 0.99);
      ("fleet.pool_efficiency", ratio device_s (fi fleet_jobs *. wall));
      ("fleet.faults", fi r.Fleet.faults);
      ("fleet.cold_restarts", fi r.Fleet.cold_restarts);
      ("trace_overhead", ratio serial_s wall1);
    ] )

(* --- Main ------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 20.0 in
  let trace = ref 0 and scale = ref Full and rev = ref "unknown" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME replay-eng | db-parity | fleet");
      ( "--seed",
        Arg.String (fun s -> seed := Some s),
        "N|default|held-out workload seed (default: the workload's default seed)" );
      ("--seconds", Arg.Set_float seconds, "S measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--scale",
        Arg.Symbol
          ([ "full"; "small" ], fun s -> scale := if s = "small" then Small else Full),
        " workload size (small is for the self-test)" );
      ("--rev", Arg.Set_string rev, "REV source revision for the manifest");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let default_seed, held_out =
    match List.assoc_opt !workload workloads with
    | Some seeds -> seeds
    | None ->
      Format.eprintf "unknown workload %S (known: %s)@." !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let seed =
    match !seed with
    | None | Some "default" -> default_seed
    | Some "held-out" -> held_out
    | Some n -> (
      match int_of_string_opt n with
      | Some n -> n
      | None ->
        Format.eprintf "--seed: expected an integer, default or held-out@.";
        exit 2)
  in
  if !trace <> 0 && !trace <> 1 then begin
    Format.eprintf "--trace must be 0 or 1@.";
    exit 2
  end;
  let w = workload_of !workload !scale in
  let selector cfg = Storage.Manager.selector_name cfg.Storage.Manager.selector in
  let params, selector =
    match w with
    | Replay r -> (
      let cfg = r.config ~seed in
      match cfg.Ssmc.Config.storage with
      | Ssmc.Config.Solid_state s ->
        ( Printf.sprintf
            "profile=%s minutes=%g cards=%d flash_mb=%d dram_mb=%d striping=%s \
             front_cache_blocks=%d diff_log=%b"
            r.profile.Trace.Synth.name r.minutes s.cards (s.flash_bytes / Units.mib)
            (cfg.Ssmc.Config.dram_bytes / Units.mib)
            (Storage.Striping.policy_name s.striping)
            s.front_cache_blocks
            (s.manager.Storage.Manager.diff_log <> None),
          selector s.manager )
      | Ssmc.Config.Conventional _ -> invalid_arg "replay workloads are solid-state")
    | Fleet_run { devices; shard } ->
      ( Printf.sprintf "devices=%d shard=%d minutes=%g faults_per_device=1" devices shard
          fleet_minutes,
        selector Storage.Manager.default_config )
  in
  print_manifest
    [
      ("workload", !workload);
      ("params", params);
      ("scale", (match !scale with Full -> "full" | Small -> "small"));
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" !seconds);
      ("trace", string_of_int !trace);
      ("queue", Event_queue.kind_name (Engine.queue_kind (Engine.create ())));
      ("selector", selector);
      ( "jobs",
        match (w, !trace) with
        | Fleet_run _, 1 -> Printf.sprintf "%d and 1" fleet_jobs
        | _ -> "1" );
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("rev", !rev);
      ("ocaml", Sys.ocaml_version);
    ];
  let table = if !trace = 0 then end_to_end else per_layer in
  let attempted, failed, values =
    try
      match (w, !trace) with
      | Replay r, 0 -> replay_end_to_end r ~seed ~seconds:!seconds
      | Replay r, _ -> replay_per_layer r ~seed
      | Fleet_run { devices; shard }, 0 ->
        fleet_end_to_end ~devices ~shard ~seed ~seconds:!seconds
      | Fleet_run { devices; shard }, _ -> fleet_per_layer ~devices ~shard ~seed
    with Storage.Manager.Out_of_space ->
      check false "Storage.Manager.Out_of_space: the workload does not fit";
      (1, 1, [])
  in
  print_result ~attempted ~failed ~table ~zero_missing:(!trace = 1) values
