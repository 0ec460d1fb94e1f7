(* Diff_log's chain table against a Hashtbl model: the table is a dense
   array indexed by block, so the model checks growth past its initial
   capacity, drop + re-chain, and the stats it sums. *)

module D = Storage.Diff_log

type op = Begin of int | Push of int | Drop of int

let apply_model model = function
  | Begin b ->
    if Hashtbl.mem model b then `Raises else (Hashtbl.replace model b (b, 0); `Ok)
  | Push b -> (
    match Hashtbl.find_opt model b with
    | None -> `Raises
    | Some (slot, n) ->
      Hashtbl.replace model b (slot, n + 1);
      `Ok)
  | Drop b ->
    Hashtbl.remove model b;
    `Ok

let apply d = function
  | Begin b -> D.begin_chain d ~block:b ~seg:(b / 8) ~slot:b
  | Push b ->
    D.push_delta d ~block:b ~pos:(D.next_pos d ~block:b) ~seg:0 ~slot:0 ~sector:b ~bytes:64
  | Drop b -> D.drop d ~block:b

let agrees d model ~blocks =
  List.for_all
    (fun b ->
      match Hashtbl.find_opt model b with
      | None ->
        (not (D.has_chain d ~block:b))
        && D.base d ~block:b = None
        && D.chain_length d ~block:b = 0
        && D.deltas d ~block:b = []
      | Some (slot, n) ->
        D.has_chain d ~block:b
        && D.base d ~block:b = Some (b / 8, slot)
        && D.chain_length d ~block:b = n
        && List.map (fun (dl : D.delta) -> dl.D.d_pos) (D.deltas d ~block:b)
           = List.init n Fun.id)
    blocks
  &&
  let s = D.stats d in
  s.D.chains = Hashtbl.length model
  && s.D.chained_deltas = Hashtbl.fold (fun _ (_, n) acc -> acc + n) model 0

(* Blocks up to 2,000: well past the table's initial 256 entries. *)
let prop_matches_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 200)
        (pair (int_bound 2) (oneof [ int_bound 15; int_bound 2_000 ])))
  in
  QCheck.Test.make ~name:"diff_log: chain table matches a Hashtbl model" ~count:300
    (QCheck.make gen) (fun ops ->
      let d = D.create D.default_config in
      let model = Hashtbl.create 16 in
      let ops =
        List.map (fun (k, b) -> match k with 0 -> Begin b | 1 -> Push b | _ -> Drop b) ops
      in
      List.for_all
        (fun op ->
          let expected = apply_model model op in
          let got = match apply d op with () -> `Ok | exception Invalid_argument _ -> `Raises in
          got = expected)
        ops
      && agrees d model ~blocks:(List.init 2_001 Fun.id))

let test_rechain_after_drop () =
  let d = D.create D.default_config in
  let b = 5_000 in
  D.begin_chain d ~block:b ~seg:1 ~slot:2;
  D.push_delta d ~block:b ~pos:0 ~seg:3 ~slot:0 ~sector:24 ~bytes:64;
  Alcotest.check_raises "second begin_chain raises"
    (Invalid_argument "Diff_log.begin_chain: block 5000 already chained") (fun () ->
      D.begin_chain d ~block:b ~seg:1 ~slot:2);
  let s = D.stats d in
  Alcotest.(check (pair int int)) "one chain, one delta" (1, 1)
    (s.D.chains, s.D.chained_deltas);
  D.drop d ~block:b;
  D.drop d ~block:b;
  Alcotest.(check bool) "dropped" false (D.has_chain d ~block:b);
  Alcotest.(check int) "drop twice counts once" 0 (D.stats d).D.chains;
  D.begin_chain d ~block:b ~seg:4 ~slot:1;
  Alcotest.(check (option (pair int int))) "fresh base" (Some (4, 1)) (D.base d ~block:b);
  Alcotest.(check int) "fresh chain is empty" 0 (D.chain_length d ~block:b);
  let s = D.stats d in
  Alcotest.(check (pair int int)) "re-chained" (1, 0) (s.D.chains, s.D.chained_deltas);
  Alcotest.check_raises "negative block"
    (Invalid_argument "Diff_log.begin_chain: negative block -1") (fun () ->
      D.begin_chain d ~block:(-1) ~seg:0 ~slot:0);
  Alcotest.(check bool) "negative lookup" false (D.has_chain d ~block:(-1))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_matches_model;
    Alcotest.test_case "re-chain after drop" `Quick test_rechain_after_drop;
  ]
