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

(* MD5 of every function's Ext-TSP block order, in program order. *)
let layouts_digest ~use_pqueue program =
  let params = { Layout.Exttsp.default_params with use_pqueue } in
  let b = Buffer.create 65536 in
  Ir.Program.iter_funcs program (fun f ->
      Buffer.add_string b f.name;
      List.iter
        (fun i -> Buffer.add_string b (" " ^ string_of_int i))
        (Layout.Exttsp.order ~params (Codegen.intra_problem f));
      Buffer.add_char b '\n');
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Both retrieval modes lay these programs out identically. A change to
   Ext-TSP's bookkeeping must reproduce every layout byte for byte; only
   a deliberate layout change may update a digest. *)
let pinned_layouts =
  [ (0, "9a91d3062f1b4ed4bcecf1cc53cdb0ca"); (1, "6596f1a6a2755f36211accc47f35cb44") ]

let test_exttsp_pinned_layouts () =
  List.iter
    (fun (k, expected) ->
      let program = relink_family_program k in
      List.iter
        (fun use_pqueue ->
          check ts
            (Printf.sprintf "program %d, use_pqueue=%b" k use_pqueue)
            expected
            (layouts_digest ~use_pqueue program))
        [ true; false ])
    pinned_layouts

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
    Alcotest.test_case "exttsp: hot chain" `Quick test_exttsp_chain;
    Alcotest.test_case "exttsp: hot fallthrough wins" `Quick test_exttsp_hot_fallthrough;
    Alcotest.test_case "exttsp: degenerate inputs" `Quick test_exttsp_singleton;
    Alcotest.test_case "exttsp: fallthrough scoring" `Quick test_exttsp_score_fallthrough_beats_jump;
    Alcotest.test_case "exttsp: distance windows" `Quick test_exttsp_window_decay;
    Alcotest.test_case "exttsp: merge count" `Quick test_exttsp_merge_count;
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
