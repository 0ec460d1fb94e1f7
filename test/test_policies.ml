(* Cleaner victim selection, wear-leveling, and bank-partitioning policies. *)
open Sim

let segment ~id ~fill ~kill ~touched =
  let s = Storage.Segment.create ~id ~first_sector:(id * 8) ~nslots:8 in
  Storage.Segment.open_ s;
  for b = 0 to fill - 1 do
    ignore (Storage.Segment.append s ~block:(100 * id + b))
  done;
  if fill < 8 then Storage.Segment.close s;
  List.iter (fun slot -> Storage.Segment.kill s ~slot) kill;
  Storage.Segment.touch s ~at:(Time.of_ns touched);
  s

(* --- Cleaner ----------------------------------------------------------------- *)

let test_greedy_picks_emptiest () =
  let a = segment ~id:0 ~fill:8 ~kill:[ 0 ] ~touched:0 in
  let b = segment ~id:1 ~fill:8 ~kill:[ 0; 1; 2; 3; 4 ] ~touched:0 in
  let c = segment ~id:2 ~fill:8 ~kill:[ 0; 1 ] ~touched:0 in
  let victim =
    Storage.Cleaner.select Storage.Cleaner.Greedy ~now:(Time.of_ns 100)
      ~eligible:(fun _ -> true)
      [| a; b; c |]
  in
  Alcotest.(check int) "emptiest chosen" 1 (Storage.Segment.id (Option.get victim))

let test_cost_benefit_prefers_old_segments () =
  (* Same utilization; the older segment must win. *)
  let young = segment ~id:0 ~fill:8 ~kill:[ 0; 1 ] ~touched:1_000_000_000 in
  let old = segment ~id:1 ~fill:8 ~kill:[ 0; 1 ] ~touched:0 in
  let victim =
    Storage.Cleaner.select Storage.Cleaner.Cost_benefit ~now:(Time.of_ns 2_000_000_000)
      ~eligible:(fun _ -> true)
      [| young; old |]
  in
  Alcotest.(check int) "older wins" 1 (Storage.Segment.id (Option.get victim))

let test_cost_benefit_cleans_fuller_old_over_emptier_young () =
  (* The LFS insight: an old segment at higher utilization can still be the
     better victim than a just-written emptier one. *)
  let young_empty = segment ~id:0 ~fill:8 ~kill:[ 0; 1; 2; 3 ] ~touched:999_000_000_000 in
  let old_fuller = segment ~id:1 ~fill:8 ~kill:[ 0; 1 ] ~touched:0 in
  let now = Time.of_ns 1_000_000_000_000 in
  let cb = Storage.Cleaner.Cost_benefit in
  Alcotest.(check bool) "old fuller scores higher" true
    (Storage.Cleaner.score cb ~now old_fuller
    > Storage.Cleaner.score cb ~now young_empty)

let test_select_respects_eligibility_and_state () =
  let open_seg = segment ~id:0 ~fill:4 ~kill:[ 0; 1; 2; 3 ] ~touched:0 in
  (* fill < 8 closes it; reopen a fresh one to have an Open segment. *)
  let fresh = Storage.Segment.create ~id:1 ~first_sector:64 ~nslots:8 in
  Storage.Segment.open_ fresh;
  let victim =
    Storage.Cleaner.select Storage.Cleaner.Greedy ~now:Time.zero
      ~eligible:(fun s -> Storage.Segment.id s <> 0)
      [| open_seg; fresh |]
  in
  Alcotest.(check bool) "nothing eligible" true (victim = None)

let test_write_amplification () =
  Alcotest.(check (float 1e-9)) "no cleaning" 1.0
    (Storage.Cleaner.write_amplification ~blocks_written:100 ~blocks_flushed:100);
  Alcotest.(check (float 1e-9)) "50% overhead" 1.5
    (Storage.Cleaner.write_amplification ~blocks_written:150 ~blocks_flushed:100);
  Alcotest.(check (float 1e-9)) "empty run" 1.0
    (Storage.Cleaner.write_amplification ~blocks_written:0 ~blocks_flushed:0)

(* --- Wear ---------------------------------------------------------------------- *)

let free_segment ~id = Storage.Segment.create ~id ~first_sector:(id * 8) ~nslots:8

let test_pick_free_policies () =
  let a = free_segment ~id:0 and b = free_segment ~id:1 and c = free_segment ~id:2 in
  let counts = [| 5; 1; 3 |] in
  let erase_count s = counts.(Storage.Segment.id s) in
  (match Storage.Wear.pick_free Storage.Wear.None_ ~erase_count [| a; b; c |] with
  | Some s -> Alcotest.(check int) "first-fit ignores wear" 0 (Storage.Segment.id s)
  | None -> Alcotest.fail "no pick");
  match Storage.Wear.pick_free Storage.Wear.Dynamic ~erase_count [| a; b; c |] with
  | Some s -> Alcotest.(check int) "dynamic picks least worn" 1 (Storage.Segment.id s)
  | None -> Alcotest.fail "no pick"

let test_pick_free_skips_non_free () =
  let used = segment ~id:0 ~fill:8 ~kill:[] ~touched:0 in
  let free = free_segment ~id:1 in
  match Storage.Wear.pick_free Storage.Wear.Dynamic ~erase_count:(fun _ -> 0) [| used; free |] with
  | Some s -> Alcotest.(check int) "only free considered" 1 (Storage.Segment.id s)
  | None -> Alcotest.fail "no pick"

let test_evenness () =
  let segs = Array.init 4 (fun id -> free_segment ~id) in
  let counts = [| 0; 10; 5; 5 |] in
  let e = Storage.Wear.evenness ~erase_count:(fun s -> counts.(Storage.Segment.id s)) segs in
  Alcotest.(check int) "min" 0 e.Storage.Wear.min_erases;
  Alcotest.(check int) "max" 10 e.Storage.Wear.max_erases;
  Alcotest.(check (float 1e-9)) "mean" 5.0 e.Storage.Wear.mean_erases

let test_relocation_trigger () =
  let closed = segment ~id:0 ~fill:8 ~kill:[] ~touched:0 in
  let other = segment ~id:1 ~fill:8 ~kill:[] ~touched:0 in
  (* max - mean = 15 > threshold 10. *)
  let counts = [| 0; 30 |] in
  let erase_count s = counts.(Storage.Segment.id s) in
  let policy = Storage.Wear.Static { spread_threshold = 10 } in
  (match
     Storage.Wear.relocation_victim policy ~erase_count ~eligible:(fun _ -> true)
       [| closed; other |]
   with
  | Some s -> Alcotest.(check int) "coldest segment relocated" 0 (Storage.Segment.id s)
  | None -> Alcotest.fail "should trigger");
  (* Below the threshold: no relocation. *)
  counts.(1) <- 5;
  Alcotest.(check bool) "no trigger below threshold" true
    (Storage.Wear.relocation_victim policy ~erase_count ~eligible:(fun _ -> true)
       [| closed; other |]
    = None);
  (* Dynamic never relocates. *)
  counts.(1) <- 100;
  Alcotest.(check bool) "dynamic never relocates" true
    (Storage.Wear.relocation_victim Storage.Wear.Dynamic ~erase_count
       ~eligible:(fun _ -> true) [| closed; other |]
    = None)

(* --- Tie-breaking ------------------------------------------------------------

   Both decision implementations (the reference scans here, the Seg_index
   fast path through the manager) must prefer the lowest segment id on
   ties; the differential tests rely on this being pinned down. *)

let test_pick_free_tie_lowest_id () =
  let segs = Array.init 4 (fun id -> free_segment ~id) in
  let erase_count _ = 7 in
  let check name policy ~for_cold =
    match Storage.Wear.pick_free ~for_cold policy ~erase_count segs with
    | Some s -> Alcotest.(check int) name 0 (Storage.Segment.id s)
    | None -> Alcotest.fail "no pick"
  in
  check "first-fit tie" Storage.Wear.None_ ~for_cold:false;
  check "dynamic tie" Storage.Wear.Dynamic ~for_cold:false;
  let static = Storage.Wear.Static { spread_threshold = 5 } in
  check "static hot tie" static ~for_cold:false;
  check "static cold tie" static ~for_cold:true

let test_cleaner_select_tie_lowest_id () =
  (* Identical utilization and age everywhere: the fold must keep its
     first (lowest-id) maximum under both policies. *)
  let segs =
    Array.init 4 (fun id -> segment ~id ~fill:8 ~kill:[ 0; 1 ] ~touched:1_000)
  in
  let now = Time.of_ns 500_000_000 in
  List.iter
    (fun (name, policy) ->
      match Storage.Cleaner.select policy ~now ~eligible:(fun _ -> true) segs with
      | Some s -> Alcotest.(check int) name 0 (Storage.Segment.id s)
      | None -> Alcotest.fail "no victim")
    [ ("greedy tie", Storage.Cleaner.Greedy);
      ("cost-benefit tie", Storage.Cleaner.Cost_benefit) ]

(* --- The indexed pass: Cleaner.best_closed --------------------------------- *)

let policies = [ ("greedy", Storage.Cleaner.Greedy); ("cost-benefit", Storage.Cleaner.Cost_benefit) ]

let best ?(allowed = fun ~bank:_ -> true) ?(segs_per_bank = 64) policy ~now ~candidate segs =
  Storage.Cleaner.best_closed policy ~now ~candidate ~segs_per_bank ~allowed segs

let test_pass_tie_lowest_id () =
  let segs = Array.init 4 (fun id -> segment ~id ~fill:8 ~kill:[ 0; 1 ] ~touched:1_000) in
  let now = Time.of_ns 500_000_000 in
  List.iter
    (fun (name, policy) ->
      Alcotest.(check int) (name ^ " tie") 0
        (best policy ~now ~candidate:(Array.make 4 true) segs);
      Alcotest.(check int) (name ^ " tie, first ineligible") 1
        (best policy ~now ~candidate:[| false; true; true; true |] segs))
    policies

let test_pass_skips_non_candidates () =
  (* The manager's candidate bit is "Closed, not retired, not the victim
     being cleaned".  The non-candidates here would all outscore id 4. *)
  let free = free_segment ~id:0 in
  let open_ = Storage.Segment.create ~id:1 ~first_sector:8 ~nslots:8 in
  Storage.Segment.open_ open_;
  ignore (Storage.Segment.append open_ ~block:100);
  let retired = segment ~id:2 ~fill:8 ~kill:[ 0; 1; 2; 3; 4; 5; 6; 7 ] ~touched:0 in
  let cleaning = segment ~id:3 ~fill:8 ~kill:[ 0; 1; 2; 3; 4; 5; 6 ] ~touched:0 in
  let closed = segment ~id:4 ~fill:8 ~kill:[ 0 ] ~touched:0 in
  let segs = [| free; open_; retired; cleaning; closed |] in
  let is_retired = [| false; false; true; false; false |] in
  let candidate =
    Array.mapi
      (fun i s ->
        Storage.Segment.state s = Storage.Segment.Closed && (not is_retired.(i)) && i <> 3)
      segs
  in
  let now = Time.of_ns 1_000_000_000 in
  List.iter
    (fun (name, policy) ->
      Alcotest.(check int) name 4 (best policy ~now ~candidate segs);
      let reference =
        Storage.Cleaner.select policy ~now
          ~eligible:(fun s -> candidate.(Storage.Segment.id s))
          segs
      in
      Alcotest.(check (option int)) (name ^ " = select") (Some 4)
        (Option.map Storage.Segment.id reference);
      Alcotest.(check int) (name ^ " none") (-1)
        (best policy ~now ~candidate:(Array.make 5 false) segs))
    policies

let test_pass_honours_purpose () =
  (* Two banks of two segments, partitioned: fresh writes may only clean
     in bank 0 even though bank 1 holds the emptiest segment. *)
  let banking = Storage.Banks.Partitioned { write_banks = 1 } in
  let segs =
    [|
      segment ~id:0 ~fill:8 ~kill:[ 0 ] ~touched:0;
      segment ~id:1 ~fill:8 ~kill:[ 0; 1 ] ~touched:0;
      segment ~id:2 ~fill:8 ~kill:[ 0; 1; 2; 3; 4; 5 ] ~touched:0;
      segment ~id:3 ~fill:8 ~kill:[] ~touched:0;
    |]
  in
  let now = Time.of_ns 1_000 in
  let candidate = Array.make 4 true in
  let pick policy purpose =
    best policy ~now ~candidate ~segs_per_bank:2
      ~allowed:(fun ~bank -> Storage.Banks.allowed banking ~nbanks:2 purpose ~bank)
      segs
  in
  List.iter
    (fun (name, policy) ->
      Alcotest.(check int) (name ^ " fresh: bank 0 only") 1
        (pick policy Storage.Banks.Fresh_write);
      Alcotest.(check int) (name ^ " clean-out: bank 1 only") 2
        (pick policy Storage.Banks.Clean_out);
      Alcotest.(check int) (name ^ " unrestricted") 2
        (best policy ~now ~candidate ~segs_per_bank:2 segs))
    policies

let test_pass_bank_tie_lower_bank () =
  (* Equal best scores in bank 0 (id 1) and bank 1 (id 2): a later bank
     replaces the best only on a strictly higher score. *)
  let segs =
    [|
      segment ~id:0 ~fill:8 ~kill:[ 0 ] ~touched:5_000;
      segment ~id:1 ~fill:8 ~kill:[ 0; 1; 2 ] ~touched:5_000;
      segment ~id:2 ~fill:8 ~kill:[ 3; 4; 5 ] ~touched:5_000;
      segment ~id:3 ~fill:8 ~kill:[] ~touched:5_000;
    |]
  in
  let now = Time.of_ns 3_000_000_000 in
  let candidate = Array.make 4 true in
  List.iter
    (fun (name, policy) ->
      Alcotest.(check int) (name ^ " lower bank") 1
        (best policy ~now ~candidate ~segs_per_bank:2 segs);
      Alcotest.(check int) (name ^ " bank 0 excluded") 2
        (best policy ~now ~candidate ~segs_per_bank:2
           ~allowed:(fun ~bank -> bank = 1)
           segs))
    policies

let test_pass_allocates_nothing () =
  (* Scores stay unboxed inside the pass: 100 passes over 512 candidates
     may not allocate even one word per pass. *)
  let segs =
    Array.init 512 (fun id -> segment ~id ~fill:8 ~kill:[ id mod 8 ] ~touched:(id * 1_000))
  in
  let candidate = Array.make 512 true in
  let allowed ~bank:_ = true in
  let now = Time.of_ns 9_000_000_000 in
  List.iter
    (fun (name, policy) ->
      let before = Gc.minor_words () in
      for _ = 1 to 100 do
        ignore
          (Sys.opaque_identity
             (Storage.Cleaner.best_closed policy ~now ~candidate ~segs_per_bank:128 ~allowed
                segs))
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) (Printf.sprintf "%s: %.0f words" name words) true (words < 100.0))
    policies

(* Random closed segments (live count, last-touched instant), candidate
   bits, bank masks, bank sizes and clock: the pass must pick exactly what
   the reference fold picks. *)
let prop_pass_matches_select =
  let gen =
    QCheck.Gen.(
      (* Few distinct instants half the time, so cost-benefit ties occur. *)
      let touched = oneof [ map (( * ) 1_000_000_000) (int_bound 2); int_bound 5_000_000_000 ] in
      let seg = triple (int_bound 8) touched bool in
      quad (list_size (int_range 1 24) seg) (int_bound 6_000_000_000) (int_range 1 5)
        (int_bound 31))
  in
  QCheck.Test.make ~name:"cleaner: best_closed = select" ~count:500 (QCheck.make gen)
    (fun (specs, now_ns, segs_per_bank, bank_mask) ->
      let segs =
        Array.of_list
          (List.mapi
             (fun id (live, touched, _) ->
               segment ~id ~fill:8 ~kill:(List.init (8 - live) Fun.id) ~touched)
             specs)
      in
      let candidate = Array.of_list (List.map (fun (_, _, c) -> c) specs) in
      let allowed ~bank = bank_mask land (1 lsl (bank mod 5)) <> 0 in
      let now = Time.of_ns now_ns in
      List.for_all
        (fun (_, policy) ->
          let reference =
            Storage.Cleaner.select policy ~now
              ~eligible:(fun s ->
                let id = Storage.Segment.id s in
                candidate.(id) && allowed ~bank:(id / segs_per_bank))
              segs
          in
          best policy ~now ~candidate ~segs_per_bank ~allowed segs
          = Option.fold ~none:(-1) ~some:Storage.Segment.id reference)
        policies)

let test_relocation_victim_tie_lowest_id () =
  let segs = Array.init 3 (fun id -> segment ~id ~fill:8 ~kill:[] ~touched:0) in
  (* Equal wear on the closed segments, a spread-busting outlier via a
     fourth: make ids 0..2 all erase-count 0 and force the trigger with a
     high max elsewhere. *)
  let outlier = free_segment ~id:3 in
  let all = Array.append segs [| outlier |] in
  let erase_count s = if Storage.Segment.id s = 3 then 40 else 0 in
  match
    Storage.Wear.relocation_victim
      (Storage.Wear.Static { spread_threshold = 10 })
      ~erase_count ~eligible:(fun _ -> true) all
  with
  | Some s -> Alcotest.(check int) "lowest id relocated" 0 (Storage.Segment.id s)
  | None -> Alcotest.fail "should trigger"

let test_lifetime_writes () =
  Alcotest.(check (float 1e-9)) "even wear full budget" 1000.0
    (Storage.Wear.lifetime_writes ~endurance:10 ~total_sectors:100 ~max_erases:5
       ~total_erases:500);
  (* Skewed wear (max 4x the mean) quarters the lifetime. *)
  Alcotest.(check (float 1e-9)) "skew divides budget" 250.0
    (Storage.Wear.lifetime_writes ~endurance:10 ~total_sectors:100 ~max_erases:8
       ~total_erases:200);
  Alcotest.(check (float 0.0)) "nothing erased" infinity
    (Storage.Wear.lifetime_writes ~endurance:10 ~total_sectors:100 ~max_erases:0
       ~total_erases:0)

(* --- Banks ----------------------------------------------------------------------- *)

let test_banks_validate () =
  Alcotest.(check bool) "unified ok" true
    (Storage.Banks.validate Storage.Banks.Unified ~nbanks:1 = Ok ());
  Alcotest.(check bool) "partitioned ok" true
    (Storage.Banks.validate (Storage.Banks.Partitioned { write_banks = 1 }) ~nbanks:4
    = Ok ());
  Alcotest.(check bool) "must leave a read bank" true
    (Result.is_error
       (Storage.Banks.validate (Storage.Banks.Partitioned { write_banks = 4 }) ~nbanks:4));
  Alcotest.(check bool) "needs a write bank" true
    (Result.is_error
       (Storage.Banks.validate (Storage.Banks.Partitioned { write_banks = 0 }) ~nbanks:4))

let test_banks_allowed () =
  let p = Storage.Banks.Partitioned { write_banks = 2 } in
  Alcotest.(check bool) "fresh in write bank" true
    (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Fresh_write ~bank:1);
  Alcotest.(check bool) "fresh not in read bank" false
    (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Fresh_write ~bank:2);
  Alcotest.(check bool) "cold in read bank" true
    (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Cold_load ~bank:3);
  Alcotest.(check bool) "cold not in write bank" false
    (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Cold_load ~bank:0);
  Alcotest.(check bool) "cleaning output to read banks" true
    (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Clean_out ~bank:2);
  Alcotest.(check bool) "unified allows all" true
    (Storage.Banks.allowed Storage.Banks.Unified ~nbanks:4 Storage.Banks.Fresh_write
       ~bank:3);
  Alcotest.check_raises "bank range" (Invalid_argument "Banks.allowed: bank out of range")
    (fun () -> ignore (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Fresh_write ~bank:4))

let suite =
  [
    Alcotest.test_case "greedy picks emptiest" `Quick test_greedy_picks_emptiest;
    Alcotest.test_case "cost-benefit prefers old" `Quick test_cost_benefit_prefers_old_segments;
    Alcotest.test_case "cost-benefit LFS insight" `Quick
      test_cost_benefit_cleans_fuller_old_over_emptier_young;
    Alcotest.test_case "eligibility respected" `Quick test_select_respects_eligibility_and_state;
    Alcotest.test_case "write amplification" `Quick test_write_amplification;
    Alcotest.test_case "pick_free policies" `Quick test_pick_free_policies;
    Alcotest.test_case "pick_free skips used" `Quick test_pick_free_skips_non_free;
    Alcotest.test_case "evenness" `Quick test_evenness;
    Alcotest.test_case "relocation trigger" `Quick test_relocation_trigger;
    Alcotest.test_case "pick_free tie -> lowest id" `Quick test_pick_free_tie_lowest_id;
    Alcotest.test_case "select tie -> lowest id" `Quick test_cleaner_select_tie_lowest_id;
    Alcotest.test_case "relocation tie -> lowest id" `Quick
      test_relocation_victim_tie_lowest_id;
    Alcotest.test_case "pass tie -> lowest id" `Quick test_pass_tie_lowest_id;
    Alcotest.test_case "pass skips non-candidates" `Quick test_pass_skips_non_candidates;
    Alcotest.test_case "pass honours purpose" `Quick test_pass_honours_purpose;
    Alcotest.test_case "pass bank tie -> lower bank" `Quick test_pass_bank_tie_lower_bank;
    Alcotest.test_case "pass allocates nothing" `Quick test_pass_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_pass_matches_select;
    Alcotest.test_case "lifetime writes" `Quick test_lifetime_writes;
    Alcotest.test_case "banks validate" `Quick test_banks_validate;
    Alcotest.test_case "banks allowed" `Quick test_banks_allowed;
  ]
