open Testutil

(* Random weighted digraph generator for property tests. *)
let graph_gen =
  QCheck.Gen.(
    sized_size (int_range 2 40) (fun n ->
        let* edge_count = int_range 0 (4 * n) in
        let* edges =
          list_repeat edge_count
            (let* s = int_bound (n - 1) in
             let* d = int_bound (n - 1) in
             let* w = float_bound_inclusive 100.0 in
             return (s, d, w))
        in
        let* sizes = array_repeat n (int_range 1 64) in
        let* weights = array_repeat n (float_bound_inclusive 50.0) in
        return (n, sizes, weights, edges)))

let graph_arb =
  QCheck.make
    ~print:(fun (n, _, _, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (s, d, w) -> Printf.sprintf "%d->%d:%.1f" s d w) edges)))
    graph_gen

let problem ?(entry = 0) (_, sizes, weights, edges) =
  Layout.Problem.make ~sizes ~weights ~edges ~entry

let is_permutation n order =
  List.length order = n && List.sort compare order = List.init n Fun.id

let exttsp_permutation_law =
  QCheck.Test.make ~count:150 ~name:"exttsp order is a permutation" graph_arb
    (fun ((n, _, _, _) as g) -> is_permutation n (Layout.Exttsp.order (problem g)))

let exttsp_entry_first_law =
  QCheck.Test.make ~count:150 ~name:"exttsp keeps the entry first" graph_arb
    (fun g ->
      match Layout.Exttsp.order (problem g) with 0 :: _ -> true | _ -> false)

(* Greedy Ext-TSP accumulates only positive merge gains, and its first
   merge captures at least the heaviest edge that can legally become a
   fall-through (an edge into the entry cannot, since the entry stays
   first). Note greedy does NOT dominate the identity layout in general
   — a counterexample exists with 4 nodes — so the sound lower bound is
   this one. *)
let exttsp_lower_bound_law =
  QCheck.Test.make ~count:150 ~name:"exttsp score >= heaviest realizable edge" graph_arb
    (fun ((_, _, _, edges) as g) ->
      let p = problem g in
      let order = Layout.Exttsp.order p in
      let s_opt = Layout.Exttsp.score ~order p in
      let best =
        List.fold_left
          (fun acc (s, d, w) -> if s <> d && d <> 0 then max acc w else acc)
          0.0 edges
      in
      s_opt >= best -. 1e-6)

let exttsp_pqueue_equals_linear_law =
  QCheck.Test.make ~count:80 ~name:"pqueue and linear retrieval agree" graph_arb
    (fun g ->
      let p1 = { Layout.Exttsp.default_params with use_pqueue = true } in
      let p2 = { Layout.Exttsp.default_params with use_pqueue = false } in
      Layout.Exttsp.order ~params:p1 (problem g) = Layout.Exttsp.order ~params:p2 (problem g))

(* Ties are where bookkeeping order shows: small integer edge and node
   weights (zero and negative ones included, which [Problem.flat]
   drops), zero-size nodes, duplicate and self edges, any entry node
   and a split limit of 0-7. An occasional 1e16 edge weight absorbs the
   small gains added after it, so sums also depend on the order of
   their terms; a rarer 1e308 one makes sums and gains overflow to
   infinity. *)
let tied_gen =
  QCheck.Gen.(
    let* n = int_range 1 30 in
    let node = int_bound (n - 1) in
    let* edges =
      list_size (int_range 0 (3 * n))
        (triple node node
           (frequency
              [ (24, map float_of_int (int_range (-1) 4)); (3, return 1e16); (1, return 1e308) ]))
    in
    let* sizes = array_repeat n (frequency [ (1, return 0); (3, int_range 1 12) ]) in
    let* weights = array_repeat n (map float_of_int (int_bound 3)) in
    let* entry = node in
    let* max_split_chain = int_bound 7 in
    return (Layout.Problem.make ~sizes ~weights ~edges ~entry, max_split_chain))

let tied_arb =
  QCheck.make
    ~print:(fun ((p : Layout.Problem.t), split) ->
      Printf.sprintf "sizes=[%s] weights=[%s] entry=%d split=%d edges=[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int p.sizes)))
        (String.concat ";" (Array.to_list (Array.map string_of_float p.weights)))
        p.entry split
        (String.concat ";"
           (List.map (fun (s, d, w) -> Printf.sprintf "%d->%d:%g" s d w) p.edges)))
    tied_gen

(* [order] and [last_merge_count] match the reference merge loop under
   both retrievals. *)
let same_as_reference ~max_split_chain p =
  List.for_all
    (fun use_pqueue ->
      let params = { Layout.Exttsp.default_params with max_split_chain; use_pqueue } in
      let got = Layout.Exttsp.order ~params p in
      let merges = Layout.Exttsp.last_merge_count () in
      (got, merges) = Ref_exttsp.order ~params p)
    [ true; false ]

let exttsp_equals_reference_law =
  QCheck.Test.make ~count:1000 ~name:"exttsp equals the reference merge loop" tied_arb
    (fun (p, max_split_chain) -> same_as_reference ~max_split_chain p)

(* The same on real per-function problems: every multi-block function
   of a generated program, at every split limit from 0 to 7 and the
   default. *)
let test_exttsp_reference_progen () =
  let _, program = medium_program () in
  Ir.Program.iter_funcs (Codegen.Inline.program program) (fun f ->
      if Ir.Func.num_blocks f > 1 then begin
        let p = Codegen.intra_problem f in
        List.iter
          (fun max_split_chain ->
            if not (same_as_reference ~max_split_chain p) then
              Alcotest.failf "%s differs at max_split_chain %d" f.name max_split_chain)
          [ 0; 1; 2; 3; 4; 5; 6; 7; Layout.Exttsp.default_params.max_split_chain ]
      end)

(* [Problem.flat] is bit-identical to the [Hashtbl] dedupe it replaced,
   on edge lists full of duplicates, self-edges and weights <= 0. *)
let flat_equals_reference_law =
  QCheck.Test.make ~count:500 ~name:"problem flat edges equal the hashtable reference" tied_arb
    (fun (p, _) ->
      let got = Layout.Problem.flat p and want = Ref_exttsp.flat p in
      let bits a = Array.map Int64.bits_of_float a in
      got.esrc = want.esrc && got.edst = want.edst && bits got.ew = bits want.ew)

let test_exttsp_chain () =
  (* A hot chain 0->1->2->3 must be laid out exactly in order. *)
  let sizes = [| 10; 10; 10; 10 |] in
  let weights = [| 1.0; 1.0; 1.0; 1.0 |] in
  let edges = [ (0, 1, 100.0); (1, 2, 100.0); (2, 3, 100.0) ] in
  check Alcotest.(list int) "chain order" [ 0; 1; 2; 3 ]
    (Layout.Exttsp.order (Layout.Problem.make ~sizes ~weights ~edges ~entry:0))

let test_exttsp_hot_fallthrough () =
  (* Diamond where the taken side is hot: 0 -> 1 (hot), 0 -> 2 (cold),
     both -> 3. The hot successor must be adjacent to 0. *)
  let sizes = [| 10; 10; 10; 10 |] in
  let weights = [| 100.0; 95.0; 5.0; 100.0 |] in
  let edges = [ (0, 1, 95.0); (0, 2, 5.0); (1, 3, 95.0); (2, 3, 5.0) ] in
  match Layout.Exttsp.order (Layout.Problem.make ~sizes ~weights ~edges ~entry:0) with
  | 0 :: 1 :: _ -> ()
  | order ->
    Alcotest.failf "hot path not adjacent: %s"
      (String.concat "," (List.map string_of_int order))

let test_exttsp_singleton () =
  check Alcotest.(list int) "single node" [ 0 ]
    (Layout.Exttsp.order
       (Layout.Problem.make ~sizes:[| 8 |] ~weights:[| 1.0 |] ~edges:[] ~entry:0));
  check Alcotest.(list int) "empty" []
    (Layout.Exttsp.order (Layout.Problem.make ~sizes:[||] ~weights:[||] ~edges:[] ~entry:0))

let score_problem ~sizes ~edges =
  Layout.Problem.make ~sizes ~weights:(Array.make (Array.length sizes) 0.0) ~edges ~entry:0

let test_exttsp_score_fallthrough_beats_jump () =
  let p = score_problem ~sizes:[| 10; 10 |] ~edges:[ (0, 1, 10.0) ] in
  let s_ft = Layout.Exttsp.score ~order:[ 0; 1 ] p in
  let s_back = Layout.Exttsp.score ~order:[ 1; 0 ] p in
  check tb "fallthrough scores higher" true (s_ft > s_back);
  check tb "fallthrough full weight" true (abs_float (s_ft -. 10.0) < 1e-9)

let test_exttsp_window_decay () =
  (* A forward jump beyond the 1024-byte window scores zero. *)
  let edges = [ (0, 2, 10.0) ] in
  let s = Layout.Exttsp.score ~order:[ 0; 1; 2 ] (score_problem ~sizes:[| 10; 2000; 10 |] ~edges) in
  check tb "out of window = 0" true (s < 1e-9);
  (* Within the window it is positive but less than a fallthrough. *)
  let s2 = Layout.Exttsp.score ~order:[ 0; 1; 2 ] (score_problem ~sizes:[| 10; 100; 10 |] ~edges) in
  check tb "in window positive" true (s2 > 0.0 && s2 < 10.0)

(* --- pinned layouts on real programs ------------------------------ *)

(* MD5 of every function's Ext-TSP block order, in program order, and
   the merges those orders took in total. *)
let layouts_digest ~use_pqueue program =
  let params = { Layout.Exttsp.default_params with use_pqueue } in
  let b = Buffer.create 65536 in
  let merges = ref 0 in
  Ir.Program.iter_funcs program (fun f ->
      Buffer.add_string b f.name;
      List.iter
        (fun i -> Buffer.add_string b (" " ^ string_of_int i))
        (Layout.Exttsp.order ~params (Codegen.intra_problem f));
      merges := !merges + Layout.Exttsp.last_merge_count ();
      Buffer.add_char b '\n');
  (Digest.to_hex (Digest.string (Buffer.contents b)), !merges)

let mcf_program () =
  Codegen.Inline.program (Progen.Generate.program (Option.get (Progen.Suite.by_name "505.mcf")))

(* A change to Ext-TSP's bookkeeping must reproduce every layout byte
   for byte and take the same number of merges; only a deliberate layout
   change may update a pin. Each pin is (digest, summed merges), and
   holds under both retrievals. *)
let pinned_layouts =
  [
    ("relink 0", (fun () -> relink_family_program 0), ("9a91d3062f1b4ed4bcecf1cc53cdb0ca", 8917));
    ("relink 1", (fun () -> relink_family_program 1), ("6596f1a6a2755f36211accc47f35cb44", 8401));
    ("relink 2", (fun () -> relink_family_program 2), ("37913cf3d904c7f5578c6a932d8dd3cb", 7173));
    ("relink 3", (fun () -> relink_family_program 3), ("fc797e12d74d22cc376e91bd6df132e8", 8323));
    ("505.mcf", mcf_program, ("8993e0cd548b9f280a0d0795d8027049", 1188));
  ]

let test_exttsp_pinned_layouts () =
  List.iter
    (fun (name, program, (digest, merges)) ->
      let program = program () in
      List.iter
        (fun use_pqueue ->
          let d, m = layouts_digest ~use_pqueue program in
          check ts (Printf.sprintf "%s layouts, use_pqueue=%b" name use_pqueue) digest d;
          check ti (Printf.sprintf "%s merges, use_pqueue=%b" name use_pqueue) merges m)
        [ true; false ])
    pinned_layouts

(* Out-of-range nodes are rejected up front, never dropped silently or
   written past an array's end. *)
let test_problem_validation () =
  let sizes = [| 10; 10; 10 |] and weights = [| 1.0; 1.0; 1.0 |] in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let make ?(sizes = sizes) ?(weights = weights) ?(entry = 0) edges =
    Layout.Problem.make ~sizes ~weights ~edges ~entry
  in
  rejects "short weights" (fun () -> make ~weights:[| 1.0; 1.0 |] []);
  rejects "entry n" (fun () -> make ~entry:3 []);
  rejects "entry -1" (fun () -> make ~entry:(-1) []);
  rejects "edge to n + 1" (fun () -> make [ (0, 4, 1.0) ]);
  rejects "edge to 9" (fun () -> make [ (0, 9, 1.0) ]);
  rejects "edge from -1" (fun () -> make [ (-1, 2, 1.0) ]);
  rejects "self-edge out of range" (fun () -> make [ (3, 3, 1.0) ]);
  rejects "edge on an empty problem" (fun () ->
      make ~sizes:[||] ~weights:[||] [ (0, 0, 1.0) ]);
  rejects "NaN weight" (fun () -> make [ (0, 1, Float.nan) ]);
  rejects "infinite weight" (fun () -> make [ (0, 1, Float.infinity) ]);
  rejects "negative infinite weight" (fun () -> make [ (0, 1, Float.neg_infinity) ]);
  (* Still accepted: an empty problem's default entry, self-edges and
     weights <= 0 (which the flat edges drop). *)
  ignore (make ~sizes:[||] ~weights:[||] []);
  let p = make [ (0, 0, 5.0); (0, 1, 0.0); (1, 2, -3.0); (1, 2, 2.0) ] in
  check ti "one flat edge" 1 (Array.length (Layout.Problem.flat p).esrc);
  rejects "score of node 7" (fun () -> Layout.Exttsp.score ~order:[ 0; 1; 7 ] p);
  rejects "score of node -1" (fun () -> Layout.Exttsp.score ~order:[ -1; 0 ] p);
  let scratch = Layout.Exttsp.scratch 3 in
  rejects "score_into node 3" (fun () -> Layout.Exttsp.score_into scratch p [| 2; 3 |]);
  rejects "score_into short scratch" (fun () ->
      Layout.Exttsp.score_into (Layout.Exttsp.scratch 2) p [| 0; 1 |]);
  check tf "in-range score" 2.0 (Layout.Exttsp.score_into scratch p [| 0; 1; 2 |])

let test_exttsp_merge_count () =
  let sizes = [| 10; 10; 10 |] in
  let weights = [| 1.0; 1.0; 1.0 |] in
  let edges = [ (0, 1, 5.0); (1, 2, 5.0) ] in
  ignore (Layout.Exttsp.order (Layout.Problem.make ~sizes ~weights ~edges ~entry:0));
  check ti "two merges for a 3-chain" 2 (Layout.Exttsp.last_merge_count ())

(* --- policy registry (ISSUE 10) ----------------------------------- *)

(* Every policy — the stochastic local-search included — must
   return a valid permutation with the entry pinned first, for
   arbitrary problems. This is the contract the relink pipeline relies
   on when the user picks a policy by name. *)
let policy_contract_law =
  QCheck.Test.make ~count:60 ~name:"every policy yields an entry-first permutation" graph_arb
    (fun ((n, _, _, _) as g) ->
      List.for_all
        (fun (pol : Layout.Policy.t) ->
          let order = pol.order (problem g) in
          is_permutation n order && List.hd order = 0)
        Layout.Policy.all)

let policy_nonzero_entry_law =
  QCheck.Test.make ~count:60 ~name:"policies pin a non-zero entry" graph_arb
    (fun ((n, _, _, _) as g) ->
      let entry = n - 1 in
      List.for_all
        (fun (pol : Layout.Policy.t) ->
          let order = pol.order (problem ~entry g) in
          is_permutation n order && List.hd order = entry)
        Layout.Policy.all)

(* local-search starts from the Ext-TSP layout and only accepts strict
   improvements, so it can never score below its seed. *)
let local_search_dominates_law =
  QCheck.Test.make ~count:40 ~name:"local-search never scores below exttsp" graph_arb
    (fun g ->
      let p = problem g in
      let ls = Option.get (Layout.Policy.find "local-search") in
      let s_ls = Layout.Exttsp.score ~order:(ls.order p) p in
      let s_tsp = Layout.Exttsp.score ~order:(Layout.Exttsp.order p) p in
      s_ls >= s_tsp -. 1e-9)

let test_policy_registry () =
  check
    Alcotest.(list string)
    "policy list" [ "exttsp"; "exttsp-linear"; "local-search" ] Layout.Policy.names;
  check tb "unknown policy rejected" true (Layout.Policy.find "no-such-policy" = None);
  (* The default policy resolves to the same ordering function the
     Ext-TSP module exports. *)
  let g = (4, [| 10; 10; 10; 10 |], [| 1.0; 1.0; 1.0; 1.0 |], [ (0, 1, 9.0); (1, 2, 9.0) ]) in
  let p = problem g in
  let pol = Option.get (Layout.Policy.find "exttsp") in
  check Alcotest.(list int) "exttsp policy = Exttsp.order" (Layout.Exttsp.order p) (pol.order p)

(* --- search harness (ISSUE 10) ------------------------------------ *)

(* Synthetic deterministic evaluator: fitness is a pure function of the
   candidate, proxy is perfectly concordant (higher proxy <=> fewer
   cycles). *)
let synth_eval (c : Layout.Search.candidate) =
  let h =
    Hashtbl.hash
      ( c.policy,
        c.params.Layout.Policy.seed,
        c.params.steps,
        c.params.exttsp.Layout.Exttsp.forward_window,
        c.params.exttsp.Layout.Exttsp.max_split_chain,
        int_of_float (c.params.exttsp.Layout.Exttsp.forward_weight *. 1000.0) )
  in
  let fitness = float_of_int (1000 + (h mod 997)) in
  { Layout.Search.fitness; proxy = 1.0e6 /. fitness }

let test_search_reproducible () =
  let run () = Layout.Search.run ~seed:7 ~budget:20 ~evaluate:synth_eval () in
  let a = run () and b = run () in
  check ti "same evaluation count" (List.length a.entries) (List.length b.entries);
  check ts "same winner policy" a.winner.candidate.policy b.winner.candidate.policy;
  check ti "same winner id" a.winner.id b.winner.id;
  check tb "same entries" true
    (List.for_all2
       (fun (x : Layout.Search.entry) (y : Layout.Search.entry) ->
         x.candidate = y.candidate && x.outcome = y.outcome && x.round = y.round)
       a.entries b.entries)

let test_search_budget_and_baseline () =
  let r = Layout.Search.run ~seed:3 ~budget:11 ~evaluate:synth_eval () in
  check ti "budget respected exactly" 11 (List.length r.entries);
  (match r.baseline with
  | None -> Alcotest.fail "no exttsp baseline entry"
  | Some b ->
    check ts "baseline is exttsp" "exttsp" b.candidate.policy;
    check ti "baseline in opening round" 0 b.round);
  (* The winner is the minimum-fitness entry. *)
  List.iter
    (fun (e : Layout.Search.entry) ->
      check tb "winner minimal" true (r.winner.outcome.fitness <= e.outcome.fitness))
    r.entries;
  (* Opening round covers every registered policy (budget permitting). *)
  let opening = List.filter (fun (e : Layout.Search.entry) -> e.round = 0) r.entries in
  check ti "opening = all policies" (List.length Layout.Policy.names) (List.length opening)

let test_search_tiny_budget () =
  let r = Layout.Search.run ~seed:1 ~budget:2 ~evaluate:synth_eval () in
  check ti "clipped opening round" 2 (List.length r.entries)

let test_search_proxy_agreement () =
  (* Concordant synthetic evaluator: agreement is exactly 1. *)
  let r = Layout.Search.run ~seed:5 ~budget:12 ~evaluate:synth_eval () in
  check tb "comparable pairs exist" true (r.comparable_pairs > 0);
  check ti "no discordance" 0 r.discordant_pairs;
  check tb "full agreement" true (r.proxy_agreement = 1.0);
  (* Anti-concordant evaluator (proxy = fitness): every comparable pair
     disagrees, agreement collapses to 0. *)
  let bad c =
    let { Layout.Search.fitness; _ } = synth_eval c in
    { Layout.Search.fitness; proxy = fitness }
  in
  let r2 = Layout.Search.run ~seed:5 ~budget:12 ~evaluate:bad () in
  check ti "all pairs discordant" r2.comparable_pairs r2.discordant_pairs;
  check tb "zero agreement" true (r2.proxy_agreement = 0.0)

(* --- hfsort ------------------------------------------------------- *)

let fproblem ~sizes ~samples ~arcs =
  Layout.Problem.make ~sizes ~weights:samples ~edges:arcs ~entry:0

let test_hfsort_permutation () =
  let sizes = [| 100; 200; 300; 50 |] in
  let samples = [| 10.0; 500.0; 1.0; 300.0 |] in
  let arcs = [ (1, 3, 100.0); (3, 0, 10.0) ] in
  let order = Layout.Hfsort.order (fproblem ~sizes ~samples ~arcs) in
  check tb "permutation" true (is_permutation 4 order)

let test_hfsort_caller_callee_adjacent () =
  let sizes = [| 100; 100; 100; 100 |] in
  let samples = [| 1000.0; 900.0; 1.0; 2.0 |] in
  let arcs = [ (0, 1, 500.0) ] in
  let order = Layout.Hfsort.order (fproblem ~sizes ~samples ~arcs) in
  let pos f = Option.get (List.find_index (fun x -> x = f) order) in
  check ti "callee right after caller" (pos 0 + 1) (pos 1)

let test_hfsort_density_order () =
  (* No arcs: order by hotness density. *)
  let sizes = [| 1000; 10; 100 |] in
  let samples = [| 100.0; 100.0; 100.0 |] in
  let order = Layout.Hfsort.order (fproblem ~sizes ~samples ~arcs:[]) in
  check Alcotest.(list int) "densest first" [ 1; 2; 0 ] order

let test_hfsort_cluster_cap () =
  (* Merging stops at the size cap, so the callee ends up placed by
     density rather than appended. *)
  let sizes = [| 900; 900 |] in
  let samples = [| 100.0; 50.0 |] in
  let arcs = [ (0, 1, 100.0) ] in
  let order = Layout.Hfsort.order ~max_cluster_size:1000 (fproblem ~sizes ~samples ~arcs) in
  check tb "still a permutation" true (is_permutation 2 order)

let hfsort_permutation_law =
  QCheck.Test.make ~count:150 ~name:"hfsort is a permutation"
    QCheck.(
      make
        Gen.(
          sized_size (int_range 1 30) (fun n ->
              let* sizes = array_repeat n (int_range 1 5000) in
              let* samples = array_repeat n (float_bound_inclusive 1000.0) in
              let* arc_count = int_range 0 (2 * n) in
              let* arcs =
                list_repeat arc_count
                  (let* s = int_bound (n - 1) in
                   let* d = int_bound (n - 1) in
                   let* w = float_bound_inclusive 100.0 in
                   return (s, d, w))
              in
              return (n, sizes, samples, arcs))))
    (fun (n, sizes, samples, arcs) ->
      is_permutation n (Layout.Hfsort.order (fproblem ~sizes ~samples ~arcs)))

(* --- split -------------------------------------------------------- *)

let test_split_partition () =
  let counts = [| 10.0; 0.0; 5.0; 0.0 |] in
  let { Layout.Split.hot; cold } = Layout.Split.partition ~counts () in
  check Alcotest.(list int) "hot" [ 0; 2 ] hot;
  check Alcotest.(list int) "cold" [ 1; 3 ] cold

let test_split_entry_always_hot () =
  let counts = [| 0.0; 7.0 |] in
  let { Layout.Split.hot; _ } = Layout.Split.partition ~counts () in
  check tb "entry hot even at zero count" true (List.mem 0 hot)

let test_split_threshold () =
  let counts = [| 100.0; 3.0; 50.0 |] in
  let { Layout.Split.cold; _ } = Layout.Split.partition ~counts ~threshold:5.0 () in
  check Alcotest.(list int) "below threshold is cold" [ 1 ] cold

let test_call_split_heuristic () =
  check tb "small region not profitable" false
    (Layout.Split.call_split_profitable ~cold_bytes:10 ~entry_count:100.0 ~cold_entry_count:0.0);
  check tb "large cold region profitable" true
    (Layout.Split.call_split_profitable ~cold_bytes:500 ~entry_count:100.0 ~cold_entry_count:0.0);
  check tb "frequently-entered region not profitable" false
    (Layout.Split.call_split_profitable ~cold_bytes:500 ~entry_count:100.0 ~cold_entry_count:50.0)

let suite =
  [
    QCheck_alcotest.to_alcotest exttsp_permutation_law;
    QCheck_alcotest.to_alcotest exttsp_entry_first_law;
    QCheck_alcotest.to_alcotest exttsp_lower_bound_law;
    QCheck_alcotest.to_alcotest exttsp_pqueue_equals_linear_law;
    QCheck_alcotest.to_alcotest exttsp_equals_reference_law;
    Alcotest.test_case "exttsp: reference on generated functions" `Quick
      test_exttsp_reference_progen;
    QCheck_alcotest.to_alcotest flat_equals_reference_law;
    Alcotest.test_case "exttsp: hot chain" `Quick test_exttsp_chain;
    Alcotest.test_case "exttsp: hot fallthrough wins" `Quick test_exttsp_hot_fallthrough;
    Alcotest.test_case "exttsp: degenerate inputs" `Quick test_exttsp_singleton;
    Alcotest.test_case "exttsp: fallthrough scoring" `Quick test_exttsp_score_fallthrough_beats_jump;
    Alcotest.test_case "exttsp: distance windows" `Quick test_exttsp_window_decay;
    Alcotest.test_case "exttsp: merge count" `Quick test_exttsp_merge_count;
    Alcotest.test_case "problem: out-of-range nodes rejected" `Quick test_problem_validation;
    Alcotest.test_case "exttsp: pinned relink-family layouts" `Quick test_exttsp_pinned_layouts;
    QCheck_alcotest.to_alcotest policy_contract_law;
    QCheck_alcotest.to_alcotest policy_nonzero_entry_law;
    QCheck_alcotest.to_alcotest local_search_dominates_law;
    Alcotest.test_case "policy: registry" `Quick test_policy_registry;
    Alcotest.test_case "search: reproducible" `Quick test_search_reproducible;
    Alcotest.test_case "search: budget and baseline" `Quick test_search_budget_and_baseline;
    Alcotest.test_case "search: tiny budget" `Quick test_search_tiny_budget;
    Alcotest.test_case "search: proxy agreement" `Quick test_search_proxy_agreement;
    Alcotest.test_case "hfsort: permutation" `Quick test_hfsort_permutation;
    Alcotest.test_case "hfsort: caller/callee adjacency" `Quick test_hfsort_caller_callee_adjacent;
    Alcotest.test_case "hfsort: density order" `Quick test_hfsort_density_order;
    Alcotest.test_case "hfsort: cluster cap" `Quick test_hfsort_cluster_cap;
    QCheck_alcotest.to_alcotest hfsort_permutation_law;
    Alcotest.test_case "split: partition" `Quick test_split_partition;
    Alcotest.test_case "split: entry hot" `Quick test_split_entry_always_hot;
    Alcotest.test_case "split: threshold" `Quick test_split_threshold;
    Alcotest.test_case "split: call heuristic" `Quick test_call_split_heuristic;
  ]
