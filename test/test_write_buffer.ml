open Sim

let make ?(capacity = 4) ?(delay = 30.0) ?(refresh = true) () =
  Storage.Write_buffer.create
    {
      Storage.Write_buffer.capacity_blocks = capacity;
      writeback_delay = Time.span_s delay;
      refresh_on_rewrite = refresh;
    }

let sec n = Time.of_ns (int_of_float (n *. 1e9))

let test_default_config_is_baker () =
  let c = Storage.Write_buffer.default_config in
  Alcotest.(check int) "1MB of blocks" 2048 c.Storage.Write_buffer.capacity_blocks;
  Alcotest.(check (float 1e-9)) "30s delay" 30.0
    (Time.span_to_s c.Storage.Write_buffer.writeback_delay)

let test_admit_and_absorb () =
  let b = make () in
  Alcotest.(check bool) "admit" true
    (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1 = Storage.Write_buffer.Admitted);
  Alcotest.(check bool) "absorb rewrite" true
    (Storage.Write_buffer.write b ~now:(sec 1.0) ~block:1 = Storage.Write_buffer.Absorbed);
  Alcotest.(check int) "size 1" 1 (Storage.Write_buffer.size b);
  Alcotest.(check int) "absorbed counter" 1 (Storage.Write_buffer.absorbed_writes b);
  Alcotest.(check int) "admitted counter" 1 (Storage.Write_buffer.admitted_blocks b)

let test_capacity_pressure () =
  let b = make ~capacity:2 () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 1.0) ~block:2);
  Alcotest.(check bool) "full" true (Storage.Write_buffer.is_full b);
  Alcotest.(check bool) "third write needs eviction" true
    (Storage.Write_buffer.write b ~now:(sec 2.0) ~block:3
    = Storage.Write_buffer.Needs_eviction);
  Alcotest.(check int) "nothing inserted" 2 (Storage.Write_buffer.size b);
  (* Oldest deadline is the eviction victim. *)
  Alcotest.(check (option int)) "victim is oldest" (Some 1) (Storage.Write_buffer.oldest b);
  Alcotest.(check bool) "take removes" true (Storage.Write_buffer.take b ~block:1);
  Alcotest.(check bool) "retry succeeds" true
    (Storage.Write_buffer.write b ~now:(sec 2.0) ~block:3 = Storage.Write_buffer.Admitted)

let test_zero_capacity_write_through () =
  (* Capacity zero means a true pass-through: every write is pushed straight
     to eviction and the buffer itself never holds, expires, or counts
     anything. *)
  let b = make ~capacity:0 () in
  Alcotest.(check bool) "always needs eviction" true
    (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1
    = Storage.Write_buffer.Needs_eviction);
  Alcotest.(check bool) "rewrite too" true
    (Storage.Write_buffer.write b ~now:(sec 1.0) ~block:1
    = Storage.Write_buffer.Needs_eviction);
  Alcotest.(check int) "never holds anything" 0 (Storage.Write_buffer.size b);
  Alcotest.(check bool) "full by definition" true (Storage.Write_buffer.is_full b);
  Alcotest.(check bool) "nothing resident" false (Storage.Write_buffer.mem b ~block:1);
  Alcotest.(check (option int)) "no victim" None (Storage.Write_buffer.oldest b);
  Alcotest.(check bool) "no deadline pending" true
    (Storage.Write_buffer.next_deadline b = None);
  Alcotest.(check (list int)) "nothing ever expires" []
    (Storage.Write_buffer.take_expired b ~now:(sec 1000.0));
  Alcotest.(check (list int)) "drain is empty" [] (Storage.Write_buffer.drain b);
  Alcotest.(check int) "no admissions counted" 0
    (Storage.Write_buffer.admitted_blocks b);
  Alcotest.(check int) "no absorptions counted" 0
    (Storage.Write_buffer.absorbed_writes b)

let test_expiry_order_and_timing () =
  let b = make ~capacity:10 ~delay:30.0 () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 5.0) ~block:2);
  Alcotest.(check (list int)) "nothing expired yet" []
    (Storage.Write_buffer.take_expired b ~now:(sec 29.0));
  Alcotest.(check (list int)) "first expires" [ 1 ]
    (Storage.Write_buffer.take_expired b ~now:(sec 30.0));
  Alcotest.(check (list int)) "second follows" [ 2 ]
    (Storage.Write_buffer.take_expired b ~now:(sec 40.0));
  Alcotest.(check int) "empty" 0 (Storage.Write_buffer.size b)

let test_take_expired_limit () =
  let b = make ~capacity:10 ~delay:1.0 () in
  for block = 1 to 5 do
    ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block)
  done;
  let first = Storage.Write_buffer.take_expired ~limit:2 b ~now:(sec 10.0) in
  Alcotest.(check (list int)) "limited batch" [ 1; 2 ] first;
  Alcotest.(check int) "rest retained" 3 (Storage.Write_buffer.size b)

let test_refresh_on_rewrite () =
  let b = make ~capacity:10 ~delay:30.0 ~refresh:true () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 20.0) ~block:1);
  Alcotest.(check (list int)) "deadline pushed out" []
    (Storage.Write_buffer.take_expired b ~now:(sec 35.0));
  Alcotest.(check (list int)) "expires at refreshed deadline" [ 1 ]
    (Storage.Write_buffer.take_expired b ~now:(sec 50.0))

let test_no_refresh_variant () =
  let b = make ~capacity:10 ~delay:30.0 ~refresh:false () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 20.0) ~block:1);
  Alcotest.(check (list int)) "original deadline holds" [ 1 ]
    (Storage.Write_buffer.take_expired b ~now:(sec 31.0))

let test_remove_cancels () =
  let b = make () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1);
  Alcotest.(check bool) "dirty removed" true (Storage.Write_buffer.remove b ~block:1);
  Alcotest.(check bool) "absent remove" false (Storage.Write_buffer.remove b ~block:1);
  Alcotest.(check int) "cancelled counter" 1 (Storage.Write_buffer.cancelled_blocks b);
  Alcotest.(check (list int)) "never flushed" []
    (Storage.Write_buffer.take_expired b ~now:(sec 100.0))

(* Peeking pops the head and re-adds it, which moves it behind every
   entry with the same deadline.  Flush and eviction order depend on this
   rotation, so it is pinned here. *)
let test_peek_rotates_deadline_tie () =
  let b = make ~capacity:10 ~delay:30.0 () in
  List.iter
    (fun block -> ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block))
    [ 1; 2; 3 ];
  Alcotest.(check (option int)) "oldest is the first admitted" (Some 1)
    (Storage.Write_buffer.oldest b);
  Alcotest.(check (list int)) "the peeked head went behind its ties" [ 2; 3; 1 ]
    (Storage.Write_buffer.drain b)

let test_drain () =
  let b = make ~capacity:10 () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:3);
  ignore (Storage.Write_buffer.write b ~now:(sec 1.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 2.0) ~block:2);
  Alcotest.(check (list int)) "drain in deadline order" [ 3; 1; 2 ]
    (Storage.Write_buffer.drain b);
  Alcotest.(check int) "empty after drain" 0 (Storage.Write_buffer.size b)

let test_stale_entries_interleaved () =
  (* Refreshes and removals leave stale queue entries sharing instants
     with live ones.  [take_expired ~limit] must deliver live blocks in
     deadline order and count only them against the limit. *)
  let b = make ~capacity:10 ~delay:30.0 ~refresh:true () in
  (* Blocks 1..4 admitted at t=0 (deadline 30), then 1 and 3 refreshed at
     t=5 (deadline 35) — their t=30 entries go stale.  Block 5 admitted
     at t=5 lands at the same 35 instant as the refreshes.  Block 2 is
     removed: its t=30 entry is stale too. *)
  for block = 1 to 4 do
    ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block)
  done;
  ignore (Storage.Write_buffer.write b ~now:(sec 5.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 5.0) ~block:3);
  ignore (Storage.Write_buffer.write b ~now:(sec 5.0) ~block:5);
  ignore (Storage.Write_buffer.remove b ~block:2);
  (* At t=30 only block 4 is genuinely due; the stale entries for 1, 2,
     and 3 at that instant must not consume the limit or surface. *)
  Alcotest.(check (list int)) "stale entries don't count against limit" [ 4 ]
    (Storage.Write_buffer.take_expired ~limit:1 b ~now:(sec 30.0));
  (* The refreshed deadline delivers 1, 3, 5 in admission order within
     the shared instant, limit counting live blocks only. *)
  Alcotest.(check (list int)) "same-instant batch respects limit" [ 1; 3 ]
    (Storage.Write_buffer.take_expired ~limit:2 b ~now:(sec 35.0));
  Alcotest.(check (list int)) "remainder follows in order" [ 5 ]
    (Storage.Write_buffer.take_expired b ~now:(sec 35.0));
  Alcotest.(check int) "buffer drained" 0 (Storage.Write_buffer.size b)

let test_refresh_does_not_leak_queue_entries () =
  (* Each refresh re-adds a queue entry; compaction must keep the queue
     within a constant factor of the live population instead of letting
     stale entries pile up one per rewrite. *)
  let b = make ~capacity:8 ~delay:30.0 ~refresh:true () in
  for round = 0 to 999 do
    for block = 1 to 8 do
      ignore (Storage.Write_buffer.write b ~now:(sec (float_of_int round)) ~block)
    done
  done;
  Alcotest.(check int) "live population" 8 (Storage.Write_buffer.size b);
  Alcotest.(check bool)
    (Printf.sprintf "queue stays bounded (pending %d)"
       (Storage.Write_buffer.pending_entries b))
    true
    (Storage.Write_buffer.pending_entries b <= 32);
  (* And the survivors still come out in deadline order. *)
  Alcotest.(check (list int)) "delivery order intact" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (Storage.Write_buffer.take_expired b ~now:(sec 2000.0))

(* Conservation: every admitted block is eventually flushed (taken),
   cancelled, or still resident. *)
let prop_conservation =
  QCheck.Test.make ~name:"write_buffer: blocks are conserved" ~count:300
    QCheck.(list (pair (int_bound 20) (int_bound 2)))
    (fun ops ->
      let b = make ~capacity:8 ~delay:10.0 () in
      let taken = ref 0 in
      let clock = ref 0.0 in
      List.iter
        (fun (block, action) ->
          clock := !clock +. 1.0;
          match action with
          | 0 -> begin
            match Storage.Write_buffer.write b ~now:(sec !clock) ~block with
            | Storage.Write_buffer.Needs_eviction -> begin
              match Storage.Write_buffer.oldest b with
              | Some victim ->
                ignore (Storage.Write_buffer.take b ~block:victim);
                incr taken;
                ignore (Storage.Write_buffer.write b ~now:(sec !clock) ~block)
              | None -> ()
            end
            | Storage.Write_buffer.Admitted | Storage.Write_buffer.Absorbed -> ()
          end
          | 1 -> ignore (Storage.Write_buffer.remove b ~block)
          | _ ->
            taken := !taken + List.length (Storage.Write_buffer.take_expired b ~now:(sec !clock)))
        ops;
      Storage.Write_buffer.admitted_blocks b
      = !taken + Storage.Write_buffer.cancelled_blocks b + Storage.Write_buffer.size b)

let suite =
  [
    Alcotest.test_case "default is Baker's config" `Quick test_default_config_is_baker;
    Alcotest.test_case "admit & absorb" `Quick test_admit_and_absorb;
    Alcotest.test_case "capacity pressure" `Quick test_capacity_pressure;
    Alcotest.test_case "zero capacity" `Quick test_zero_capacity_write_through;
    Alcotest.test_case "expiry order" `Quick test_expiry_order_and_timing;
    Alcotest.test_case "expiry limit" `Quick test_take_expired_limit;
    Alcotest.test_case "refresh on rewrite" `Quick test_refresh_on_rewrite;
    Alcotest.test_case "no-refresh variant" `Quick test_no_refresh_variant;
    Alcotest.test_case "remove cancels" `Quick test_remove_cancels;
    Alcotest.test_case "peek rotates a deadline tie" `Quick test_peek_rotates_deadline_tie;
    Alcotest.test_case "drain" `Quick test_drain;
    Alcotest.test_case "stale entries interleaved" `Quick test_stale_entries_interleaved;
    Alcotest.test_case "refresh does not leak queue entries" `Quick
      test_refresh_does_not_leak_queue_entries;
    QCheck_alcotest.to_alcotest prop_conservation;
  ]
