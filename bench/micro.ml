(* Bechamel micro-benchmarks for the core algorithms; one Test.make per
   component, including the pqueue-vs-linear Ext-TSP retrieval ablation
   the paper's 4.7 calls out. *)

open Bechamel
open Toolkit

(* A synthetic hot CFG: chain with side exits and loops, [n] nodes. *)
let synth_graph n =
  let rng = Support.Rng.create 42L in
  let sizes = Array.init n (fun _ -> 8 + Support.Rng.int rng 40) in
  let weights = Array.init n (fun _ -> Support.Rng.float rng *. 1000.0) in
  let edges = ref [] in
  for i = 0 to n - 2 do
    edges := (i, i + 1, 500.0 +. Support.Rng.float rng *. 500.0) :: !edges;
    if i mod 3 = 0 && i + 2 < n then
      edges := (i, i + 2 + Support.Rng.int rng (n - i - 2), Support.Rng.float rng *. 80.0) :: !edges;
    if i mod 7 = 0 && i > 4 then
      edges := (i, i - 1 - Support.Rng.int rng 3, Support.Rng.float rng *. 300.0) :: !edges
  done;
  (sizes, weights, !edges)

let synth_problem n =
  let sizes, weights, edges = synth_graph n in
  Layout.Problem.make ~sizes ~weights ~edges ~entry:0

let exttsp_test name ~use_pqueue ~n =
  let problem = synth_problem n in
  let params = { Layout.Exttsp.default_params with use_pqueue } in
  Test.make ~name (Staged.stage (fun () -> ignore (Layout.Exttsp.order ~params problem)))

(* Relink program 0: clang's shape at a quarter of its units and
   functions per unit, seeded as program 0 of the relink benchmark's
   default run (seed 101), after inlining. *)
let relink_prog0 =
  lazy
    (let clang = Progen.Suite.clang in
     let run = Support.Rng.next (Support.Rng.create 101L) in
     let seed = Support.Rng.next (Support.Rng.split (Support.Rng.create run) 0) in
     Codegen.Inline.program
       (Progen.Generate.program
          {
            clang with
            Progen.Spec.num_units = clang.num_units / 4;
            funcs_per_unit_mean = clang.funcs_per_unit_mean /. 4.0;
            seed;
          }))

(* Every multi-block function of relink program 0. *)
let relink_prog0_funcs =
  lazy
    (let program = Lazy.force relink_prog0 in
     let funcs = ref [] in
     Ir.Program.iter_funcs program (fun f -> if Ir.Func.num_blocks f > 1 then funcs := f :: !funcs);
     List.rev !funcs)

(* Ext-TSP on the problems a cold relink solves, not a synthetic graph;
   the problems are built before timing. *)
let exttsp_relink_test () =
  let problems = List.map Codegen.intra_problem (Lazy.force relink_prog0_funcs) in
  Test.make ~name:"exttsp_relink_prog0"
    (Staged.stage (fun () -> List.iter (fun p -> ignore (Layout.Exttsp.order p)) problems))

(* The other half of the codegen layout layer on the same functions:
   block frequencies, edge frequencies and the flat edges Ext-TSP
   starts from. *)
let intra_problem_test () =
  let funcs = Lazy.force relink_prog0_funcs in
  Test.make ~name:"intra_problem_prog0"
    (Staged.stage (fun () ->
         List.iter (fun f -> ignore (Layout.Problem.flat (Codegen.intra_problem f))) funcs))

let hfsort_test =
  let n = 2000 in
  let rng = Support.Rng.create 7L in
  let sizes = Array.init n (fun _ -> 64 + Support.Rng.int rng 4000) in
  let samples = Array.init n (fun _ -> Support.Rng.float rng *. 1.0e5) in
  let arcs =
    List.init (4 * n) (fun _ ->
        (Support.Rng.int rng n, Support.Rng.int rng n, Support.Rng.float rng *. 100.0))
  in
  let problem = Layout.Problem.make ~sizes ~weights:samples ~edges:arcs ~entry:0 in
  Test.make ~name:"hfsort_2000_funcs"
    (Staged.stage (fun () -> ignore (Layout.Hfsort.order problem)))

let mcf_artifacts =
  lazy
    (let spec = Option.get (Progen.Suite.by_name "505.mcf") in
     let program = Progen.Generate.program spec in
     let objs =
       Codegen.compile_program { Codegen.default_options with emit_bb_addr_map = true } program
     in
     let { Linker.Link.binary; _ } =
       Linker.Link.link
         ~options:{ Linker.Link.default_options with keep_bb_addr_map = true }
         ~name:"mcf" ~entry:"main" objs
     in
     let image = Exec.Image.build program binary in
     let profile = Perfmon.Lbr.create_profile () in
     let (_ : Exec.Interp.stats) =
       Exec.Interp.run image
         { Exec.Interp.default_config with requests = 50 }
         (Perfmon.Lbr.collector Perfmon.Lbr.default_config profile)
     in
     (program, objs, binary, image, profile))

let link_test =
  Test.make ~name:"link_relax_mcf"
    (Staged.stage (fun () ->
         let _, objs, _, _, _ = Lazy.force mcf_artifacts in
         ignore (Linker.Link.link ~name:"mcf" ~entry:"main" objs)))

let dcfg_test =
  Test.make ~name:"dcfg_build_mcf"
    (Staged.stage (fun () ->
         let _, _, binary, _, profile = Lazy.force mcf_artifacts in
         ignore (Propeller.Dcfg.build ~profile ~binary)))

let wpa_test =
  Test.make ~name:"wpa_analyze_mcf"
    (Staged.stage (fun () ->
         let _, _, binary, _, profile = Lazy.force mcf_artifacts in
         ignore (Propeller.Wpa.analyze ~profile:(Propeller.Wpa.Lbr profile) ~binary ())))

let exec_test =
  Test.make ~name:"exec_50_requests_mcf"
    (Staged.stage (fun () ->
         let _, _, _, image, _ = Lazy.force mcf_artifacts in
         ignore
           (Exec.Interp.run image
              { Exec.Interp.default_config with requests = 50 }
              Exec.Event.null)))

(* The flat-data fast-path kernels (ISSUE 9). Each gets a bechamel
   entry below AND a lightweight self-timed measurement ([json]) that
   rides along in the bench JSON, so a slowdown in a relinkbench smoke
   can be traced to the kernel that caused it. *)

(* 4k synthetic branch pairs, then a second pass over the same pairs:
   half the bumps insert, half hit — the collector's steady-state mix. *)
let lbr_pairs =
  let rng = Support.Rng.create 11L in
  Array.init 4096 (fun _ ->
      (0x1000 + Support.Rng.int rng 0xfffff, 0x1000 + Support.Rng.int rng 0xfffff))

let lbr_bump_kernel () =
  let tab = Support.Itab.create 64 in
  for _ = 1 to 2 do
    Array.iter (fun (src, dst) -> Perfmon.Lbr.add_pair tab ~src ~dst 1) lbr_pairs
  done

let score_fixture =
  let problem = synth_problem 1000 in
  (* Warm the flat-edge cache so the kernel measures steady-state
     scoring (the search-loop regime), not the one-time dedupe. *)
  ignore (Layout.Problem.flat problem);
  (problem, List.init 1000 Fun.id)

let exttsp_score_kernel () =
  let problem, order = score_fixture in
  ignore (Layout.Exttsp.score ~order problem : float)

(* 8k uniformly random text-segment addresses against the mcf image —
   every resolution class (code, padding) gets exercised. *)
let resolve_fixture =
  lazy
    (let _, _, binary, _, _ = Lazy.force mcf_artifacts in
     let resolver = Inspect.Resolve.create binary in
     let rng = Support.Rng.create 23L in
     let lo = binary.Linker.Binary.text_start and hi = binary.Linker.Binary.text_end in
     let addrs = Array.init 8192 (fun _ -> lo + Support.Rng.int rng (hi - lo)) in
     (resolver, addrs))

let resolve_batch_kernel () =
  let resolver, addrs = Lazy.force resolve_fixture in
  ignore (Inspect.Resolve.resolve_batch resolver addrs : int array)

(* Every tape of a 20-request run of the mcf image, copied as the
   engine drains it, so the kernel times the µarch model alone. *)
let mcf_tapes =
  lazy
    (let _, _, _, image, _ = Lazy.force mcf_artifacts in
     let tapes = ref [] in
     let copy (t : Exec.Event.tape) =
       tapes :=
         {
           t with
           tags = Bytes.sub t.tags 0 t.len;
           a = Array.sub t.a 0 t.len;
           b = Array.sub t.b 0 t.len;
           c = Array.sub t.c 0 t.len;
         }
         :: !tapes
     in
     ignore
       (Exec.Interp.run_tape image { Exec.Interp.default_config with requests = 20 } ~drain:copy
         : Exec.Interp.stats);
     List.rev !tapes)

(* One fresh core, as every simulated batch builds; [uarch_consume_mcf]
   includes one too. *)
let uarch_create_kernel () =
  ignore (Sys.opaque_identity (Uarch.Core.create Uarch.Core.default_config) : Uarch.Core.t)

let uarch_consume_kernel () =
  let core = Uarch.Core.create Uarch.Core.default_config in
  List.iter (Uarch.Core.consume core) (Lazy.force mcf_tapes)

(* The engine half of a simulated batch: the run [mcf_tapes] copies,
   with a drain that drops each tape. Beside [uarch_consume_mcf] it
   splits a batch into engine and model. [exec_50_requests_mcf] runs
   with [Event.null], which skips the tape writes. *)
let exec_tape_kernel () =
  let _, _, _, image, _ = Lazy.force mcf_artifacts in
  ignore
    (Exec.Interp.run_tape image { Exec.Interp.default_config with requests = 20 } ~drain:ignore
      : Exec.Interp.stats)

(* The digest layer of a cold relink of program 0: every function
   digest (past the memo), every unit action key under the metadata
   options, and every object digest of the metadata build. The objects
   are compiled before timing. *)
let unit_keys_fixture =
  lazy
    (let program = Lazy.force relink_prog0 in
     let options, _ = Propeller.Pipeline.metadata_options in
     (program, options, Codegen.compile_program options program))

let unit_keys_kernel () =
  let program, options, objs = Lazy.force unit_keys_fixture in
  let digest d = ignore (d : Support.Digesting.t) in
  Ir.Program.iter_funcs program (fun f -> digest (Buildsys.Driver.func_digest_uncached f));
  List.iter (fun u -> digest (Buildsys.Driver.unit_action_key u options)) (Ir.Program.units program);
  List.iter (fun o -> digest (Buildsys.Driver.obj_digest_uncached o)) objs

let fastpath_kernels =
  [
    ("lbr_bump_packed_8k", lbr_bump_kernel);
    ("exttsp_score_flat_1000", exttsp_score_kernel);
    ("resolve_batch_mcf_8k", resolve_batch_kernel);
    ("uarch_create_default", uarch_create_kernel);
    ("exec_tape_mcf", exec_tape_kernel);
    ("uarch_consume_mcf", uarch_consume_kernel);
    ("unit_keys_relink_prog0", unit_keys_kernel);
  ]

(* Median-of-3 batch averages on the wall clock: coarser than
   bechamel's OLS, but dependency-light and fast enough to run inside
   every bench-JSON emission. Wall-clock, so NOT byte-stable. *)
let time_ns_per_call ?(batch = 30) f =
  f ();
  let sample () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch
  in
  match List.sort compare [ sample (); sample (); sample () ] with
  | [ _; median; _ ] -> median
  | _ -> assert false

let json () =
  Obs.Json.Obj
    [
      ( "kernels",
        Obs.Json.List
          (List.map
             (fun (name, f) ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String name);
                   ("ns_per_call", Obs.Json.Float (time_ns_per_call f));
                 ])
             fastpath_kernels) );
    ]

(* 5 000 adds of priorities from 97 values (so ties are common),
   then 5 000 pops: Ext-TSP's push-once, pop-best use of the queue. *)
let pqueue_test =
  Test.make ~name:"pqueue_10k_ops"
    (Staged.stage (fun () ->
         let q = Support.Pqueue.create () in
         for i = 0 to 4_999 do
           Support.Pqueue.add q ~priority:(float_of_int (i * 7 mod 97)) i
         done;
         while Support.Pqueue.length q > 0 do
           ignore (Support.Pqueue.pop_max q)
         done))

let tests () =
  [
    exttsp_test "exttsp_pqueue_300" ~use_pqueue:true ~n:300;
    exttsp_test "exttsp_linear_300" ~use_pqueue:false ~n:300;
    exttsp_test "exttsp_pqueue_1000" ~use_pqueue:true ~n:1000;
    exttsp_test "exttsp_linear_1000" ~use_pqueue:false ~n:1000;
    exttsp_relink_test ();
    intra_problem_test ();
    hfsort_test;
    pqueue_test;
    link_test;
    dcfg_test;
    wpa_test;
    exec_test;
    Test.make ~name:"lbr_bump_packed_8k" (Staged.stage lbr_bump_kernel);
    Test.make ~name:"exttsp_score_flat_1000" (Staged.stage exttsp_score_kernel);
    Test.make ~name:"resolve_batch_mcf_8k" (Staged.stage resolve_batch_kernel);
    Test.make ~name:"uarch_create_default" (Staged.stage uarch_create_kernel);
    Test.make ~name:"exec_tape_mcf" (Staged.stage exec_tape_kernel);
    Test.make ~name:"uarch_consume_mcf" (Staged.stage uarch_consume_kernel);
    Test.make ~name:"unit_keys_relink_prog0" (Staged.stage unit_keys_kernel);
  ]

let run () =
  Report.print_title "Micro-benchmarks (bechamel; ns per run, OLS on monotonic clock)";
  let instances = Instance.[ monotonic_clock ] in
  (* stabilize=false: GC compaction between samples is prohibitively slow
     when the workbench cache holds every benchmark's artifacts. *)
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.4) ~kde:None ~stabilize:false ()
  in
  let raw =
    List.map (fun test -> Benchmark.all cfg instances test) (List.map (fun t -> t) (tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  List.iter
    (fun results ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.one ols Instance.monotonic_clock { Benchmark.stats = result.Benchmark.stats; lr = result.lr; kde = result.kde } with
          | ols_result -> (
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n" name est
            | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name))
        results)
    raw
