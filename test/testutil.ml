(* Shared helpers for the test suites: tiny hand-built programs with
   known shapes, plus convenience wrappers around the pipeline. *)

let check = Alcotest.check

let ti = Alcotest.int

let tf = Alcotest.float 1e-9

let ts = Alcotest.string

let tb = Alcotest.bool

(* A block with [bytes] of pure compute. *)
let compute_block ~id ~bytes ~term =
  Ir.Block.make ~id ~body:[ Ir.Inst.Compute bytes ] ~term ()

let branch ?(cond = Isa.Cond.Eq) ~taken ~fallthrough ~prob ?(pgo_prob = prob) () =
  Ir.Term.Branch { cond; taken; fallthrough; prob; pgo_prob }

(* A diamond: 0 -> (1 | 2) -> 3(ret); block 1 taken with [prob]. *)
let diamond_func ?(name = "diamond") ?(prob = 0.3) ?(pgo_prob = prob) () =
  Ir.Func.make ~name
    [|
      compute_block ~id:0 ~bytes:10
        ~term:(branch ~taken:1 ~fallthrough:2 ~prob ~pgo_prob ());
      compute_block ~id:1 ~bytes:12 ~term:(Ir.Term.Jump 3);
      compute_block ~id:2 ~bytes:14 ~term:(Ir.Term.Jump 3);
      compute_block ~id:3 ~bytes:6 ~term:Ir.Term.Return;
    |]

(* A loop: 0 -> 1 (body, back-edge p=0.75) -> 2 ret. *)
let loop_func ?(name = "loop") () =
  Ir.Func.make ~name
    [|
      compute_block ~id:0 ~bytes:8 ~term:(Ir.Term.Jump 1);
      compute_block ~id:1 ~bytes:20
        ~term:(branch ~taken:1 ~fallthrough:2 ~prob:0.75 ());
      compute_block ~id:2 ~bytes:4 ~term:Ir.Term.Return;
    |]

(* caller -> callee program: main calls f in its entry block. *)
let call_program () =
  let callee = diamond_func ~name:"callee" () in
  let main =
    Ir.Func.make ~name:"main"
      [|
        Ir.Block.make ~id:0
          ~body:[ Ir.Inst.Compute 6; Ir.Inst.DirectCall "callee"; Ir.Inst.Compute 4 ]
          ~term:(branch ~taken:0 ~fallthrough:1 ~prob:0.6 ())
          ();
        compute_block ~id:1 ~bytes:5 ~term:Ir.Term.Return;
      |]
  in
  Ir.Program.make ~name:"callprog" ~main:"main"
    [ Ir.Cunit.make ~name:"u_main" [ main ]; Ir.Cunit.make ~name:"u_callee" [ callee ] ]

(* A multi-unit program exercising calls, loops, switches, cold paths. *)
let medium_program ?(seed = 7L) () =
  let spec =
    {
      (Option.get (Progen.Suite.by_name "505.mcf")) with
      Progen.Spec.name = "testprog";
      seed;
      num_units = 12;
      requests = 40;
    }
  in
  (spec, Progen.Generate.program spec)

(* Program [k] of the relink family the benchmark draws: clang's
   shape at a quarter of its units and functions per unit, seeded as
   program k of the default run (seed 101), after cross-module
   inlining. *)
let relink_family_program k =
  let clang = Progen.Suite.clang in
  let run = Support.Rng.next (Support.Rng.create 101L) in
  let seed = Support.Rng.next (Support.Rng.split (Support.Rng.create run) k) in
  Progen.Generate.program
    {
      clang with
      Progen.Spec.num_units = clang.num_units / 4;
      funcs_per_unit_mean = clang.funcs_per_unit_mean /. 4.0;
      seed;
    }
  |> Codegen.Inline.program

(* Relink-family program 0 through one pipeline run under the settings
   the relink benchmark uses: the WPA configuration and the run. *)
let relink0_run =
  lazy
    (let clang = Progen.Suite.clang in
     let config =
       {
         Propeller.Pipeline.default_config with
         profile_run = { Exec.Interp.default_config with requests = clang.requests / 16 };
         hugepages = clang.hugepages;
       }
     in
     let env = Buildsys.Driver.make_env () in
     ( config.wpa,
       Propeller.Pipeline.run ~config ~env ~program:(relink_family_program 0) ~name:"pin" () ))

let compile_and_link ?(codegen = Codegen.default_options) ?(link = Linker.Link.default_options)
    ?(name = "test") program =
  let objs = Codegen.compile_program codegen program in
  (objs, Linker.Link.link ~options:link ~name ~entry:(Ir.Program.main program) objs)

let metadata_link program =
  compile_and_link
    ~codegen:{ Codegen.default_options with emit_bb_addr_map = true }
    ~link:{ Linker.Link.default_options with keep_bb_addr_map = true }
    program

let run_with_profile ?(requests = 40) program binary =
  let image = Exec.Image.build program binary in
  let profile = Perfmon.Lbr.create_profile () in
  let stats =
    Exec.Interp.run image
      { Exec.Interp.default_config with requests }
      (Perfmon.Lbr.collector Perfmon.Lbr.default_config profile)
  in
  (stats, profile)

(* Words [f ()] allocates on the minor and major heaps alike, counted
   as relinkbench's child counts an op: minor + major - promoted. An
   array over 256 words goes straight to the major heap, which
   [Gc.minor_words] alone never sees. A minor collection before each
   reading flushes the runtime's counters. *)
let allocated_words f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.minor_words +. s.major_words -. s.promoted_words
  in
  let w0 = words () in
  f ();
  words () -. w0
