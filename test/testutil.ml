(* Shared helpers for the test suites: tiny hand-built programs with
   known shapes, plus convenience wrappers around the pipeline. *)

let check = Alcotest.check

(* A run context of its own for each call: a fresh recorder and a
   one-domain pool unless the test passes its own. *)
let ctx ?(recorder = Obs.Recorder.create ()) ?(pool = Support.Pool.create ~jobs:1) ?faults () =
  Support.Ctx.create ~recorder ~pool ?faults ()

let ti = Alcotest.int

let tf = Alcotest.float 1e-9

let ts = Alcotest.string

let tb = Alcotest.bool

(* Fisher-Yates shuffle of [arr] in place, drawing from [rng]: the
   random orderings the relaxation and symbol-order laws feed the
   linker. *)
let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Support.Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* The symbolic target of a branch or call, and whether an instruction
   is a branch: the reference the relocation and relaxation checks walk
   instructions with. *)
let branch_target = function
  | Isa.Jcc { target; _ } | Isa.Jmp { target; _ } | Isa.Call target -> Some target
  | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.IndirectCall | Isa.IndirectJmp | Isa.Ret
  | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ ->
    None

let is_branch = function Isa.Jcc _ | Isa.Jmp _ -> true | _ -> false

(* The code fragment of a text section. *)
let fragment (s : Objfile.Section.t) =
  match s.contents with Objfile.Section.Code f -> Some f | Map _ | Raw _ -> None

(* The bytes of an object's sections of one kind, and its number of
   text sections. *)
let size_by_kind (o : Objfile.File.t) kind =
  List.fold_left
    (fun acc (s : Objfile.Section.t) -> if s.kind = kind then acc + Objfile.Section.size s else acc)
    0 o.sections

let num_text_sections (o : Objfile.File.t) = List.length (List.filter Objfile.Section.is_text o.sections)

(* Taken control transfers of a run: what one LBR record and the B2
   counter each count. *)
let taken_branches (s : Exec.Interp.stats) =
  s.cond_taken + s.uncond_jumps + s.indirect_jumps + s.calls + s.returns

(* A PEBS collection over a whole run, through the tape drain the
   pipeline uses. *)
let run_pebs image config pebs profile =
  let c = Perfmon.Pebs.collector_state pebs profile in
  Exec.Interp.run ~ctx:(ctx ()) image config (Perfmon.Pebs.consume c)

(* The plan with every fault rate at zero: [--faults] with no keys. *)
let no_faults = Result.get_ok (Faultsim.Plan.of_spec "")

(* --- Telemetry read back from its exports ---------------------------- *)

let parse_json s =
  match Obs.Json.parse s with Ok j -> j | Error e -> Alcotest.failf "JSON does not parse: %s" e

(* Entry [name] of [section] ("counters", "gauges" or "histograms") of
   a metrics export. *)
let metric section name json = Option.bind (Obs.Json.member section json) (Obs.Json.member name)

(* A counter of a metrics export; 0 when it was never bumped. *)
let counter json name =
  match metric "counters" name json with Some (Obs.Json.Int n) -> n | _ -> 0

let recorder_counter r name = counter (parse_json (Obs.Recorder.metrics_json r)) name

(* A summary field of histogram "h" in registry [m]'s export. *)
let summary_field m field =
  match Option.bind (metric "histograms" "h" (Obs.Metrics.to_json m)) (Obs.Json.member field) with
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int n) -> float_of_int n
  | _ -> Alcotest.failf "histogram h has no summary %s" field

(* A completed span as the Chrome trace export shows it, times in
   seconds (the export keeps whole microseconds). *)
type span = { sname : string; sdepth : int; sstart : float; sdur : float }

let trace_spans t =
  let int k j = match Obs.Json.member k j with Some (Obs.Json.Int n) -> n | _ -> -1 in
  match Obs.Json.member "traceEvents" (Obs.Trace.to_chrome_json t) with
  | Some (Obs.Json.List evs) ->
    List.filter_map
      (fun ev ->
        match (Obs.Json.member "ph" ev, Obs.Json.member "name" ev, Obs.Json.member "args" ev) with
        | Some (Obs.Json.String "X"), Some (Obs.Json.String sname), Some args ->
          Some
            {
              sname;
              sdepth = int "depth" args;
              sstart = float_of_int (int "ts" ev) /. 1e6;
              sdur = float_of_int (int "dur" ev) /. 1e6;
            }
        | _ -> None)
      evs
  | _ -> Alcotest.fail "trace export has no traceEvents"

(* A self-profiler span, driven the way [Obs.Recorder.with_span] drives
   it, and the profile's rows as its JSON export shows them. *)
let selfprof_span sp name f =
  let fr = Obs.Selfprof.enter sp name in
  Fun.protect ~finally:(fun () -> Obs.Selfprof.leave sp fr) f

let selfprof_rows sp =
  match Obs.Selfprof.rows_of_json (Obs.Selfprof.to_json sp) with
  | Ok rows -> rows
  | Error e -> Alcotest.failf "self-profile export does not re-read: %s" e

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

(* The pipeline settings the relink benchmark runs its programs under. *)
let relink_config =
  let clang = Progen.Suite.clang in
  {
    Propeller.Pipeline.default_config with
    profile_run = { Exec.Interp.default_config with requests = clang.requests / 16 };
    hugepages = clang.hugepages;
  }

(* Relink-family program 0 through one pipeline run under those
   settings: the WPA configuration and the run. *)
let relink0_run =
  lazy
    (let env = Buildsys.Driver.make_env ~ctx:(ctx ()) () in
     ( relink_config.wpa,
       Propeller.Pipeline.run ~config:relink_config ~env ~program:(relink_family_program 0)
         ~name:"pin" () ))

let mcf_spec = Option.get (Progen.Suite.by_name "505.mcf")

let mcf_program = lazy (Progen.Generate.program mcf_spec)

(* 505.mcf through one pipeline run at the default settings and 40
   profiled requests. *)
let mcf_run =
  lazy
    (let env = Buildsys.Driver.make_env ~ctx:(ctx ()) () in
     Propeller.Pipeline.run
       ~config:
         {
           Propeller.Pipeline.default_config with
           profile_run = { Exec.Interp.default_config with requests = 40 };
         }
       ~env ~program:(Lazy.force mcf_program) ~name:"505.mcf" ())

(* 505.mcf's program and the metadata binary of [mcf_run]. *)
let mcf_metadata =
  lazy (Lazy.force mcf_program, (Lazy.force mcf_run).Propeller.Pipeline.metadata_build.binary)

(* The address-map DCFG of a pipeline run's profile. *)
let run_dcfg (r : Propeller.Pipeline.result) =
  Propeller.Dcfg.build ~profile:r.profile ~binary:r.metadata_build.binary

let compile_and_link ?(codegen = Codegen.default_options) ?(link = Linker.Link.default_options)
    ?(name = "test") program =
  let objs = Codegen.compile_program ~ctx:(ctx ()) codegen program in
  (objs, Linker.Link.link ~ctx:(ctx ()) ~options:link ~name ~entry:(Ir.Program.main program) objs)

let metadata_link program =
  compile_and_link
    ~codegen:{ Codegen.default_options with emit_bb_addr_map = true }
    ~link:{ Linker.Link.default_options with keep_bb_addr_map = true }
    program

(* A global symbol's address in a linked binary. *)
let symbol_addr (binary : Linker.Binary.t) s = Hashtbl.find_opt binary.symbols s

(* A placed block by function and block id; [Not_found] when absent. *)
let block_info_exn binary ~func ~block =
  match Linker.Binary.block_info binary ~func ~block with Some b -> b | None -> raise Not_found

(* The final instructions of a placed block by function and block id. *)
let func_block_insts binary ~func ~block =
  Linker.Binary.insts binary (Linker.Binary.block_positions binary func).(block)

(* The retained address map as the link once encoded it, one entry
   record per block, rebuilt from the binary's map ranges: each entry's
   id, offset from its section's symbol and size come from the final
   block; it can fall through unless its last instruction is an
   unconditional jump or a return; landing pads are [program]'s IR
   blocks' (none without a program). *)
let bb_map_of ?program (binary : Linker.Binary.t) : Objfile.Bbmap.t =
  let rec last_inst = function [] -> None | [ i ] -> Some i | _ :: rest -> last_inst rest in
  let landing_pad func block =
    match Option.bind program (fun p -> Ir.Program.find_func p func) with
    | Some f -> (Ir.Func.block f block).is_landing_pad
    | None -> false
  in
  Array.to_list
    (Array.map
       (fun (m : Linker.Binary.map_range) ->
         let sym = Option.get (symbol_addr binary m.symbol) in
         let entry k =
           let b = binary.blocks.(m.first + k) in
           {
             Objfile.Bbmap.bb_id = b.block;
             offset = b.addr - sym;
             size = b.size;
             can_fallthrough =
               (match last_inst (Linker.Binary.insts binary (m.first + k)) with
               | Some (Isa.Jmp _ | Isa.Ret | Isa.IndirectJmp) -> false
               | Some _ | None -> true);
             is_landing_pad = landing_pad b.func b.block;
           }
         in
         { Objfile.Bbmap.func = m.symbol; entries = List.init (m.last - m.first) entry })
       binary.bb_addr_map)

let run_with_profile ?(requests = 40) program binary =
  let image = Exec.Image.build program binary in
  let profile = Perfmon.Lbr.create_profile () in
  let c = Perfmon.Lbr.collector_state Perfmon.Lbr.default_config profile in
  let stats =
    Exec.Interp.run ~ctx:(ctx ())
      image { Exec.Interp.default_config with requests } (Perfmon.Lbr.consume c)
  in
  (stats, profile)

(* Words [f ()] allocates on the minor and major heaps alike, counted
   as relinkbench's child counts an op: minor + major - promoted. An
   array over 256 words goes straight to the major heap, which
   [Gc.minor_words] alone never sees. A minor collection before each
   reading flushes the runtime's counters. The runtime samples its
   major counters at collections, so a major cycle left half done by
   earlier code can charge its words to [f]; a full major collection
   first settles the heap. *)
let allocated_words f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.minor_words +. s.major_words -. s.promoted_words
  in
  Gc.full_major ();
  let w0 = words () in
  f ();
  words () -. w0

(* A layout problem over raw [(src, dst, w)] edges, handed to
   [Layout.Problem.make] as its flat arrays in list order. *)
let problem_of_edges ~sizes ~weights ~edges ~entry =
  let e = Array.of_list edges in
  Layout.Problem.make ~sizes ~weights
    ~esrc:(Array.map (fun (s, _, _) -> s) e)
    ~edst:(Array.map (fun (_, d, _) -> d) e)
    ~ew:(Array.map (fun (_, _, w) -> w) e)
    ~entry

(* Each piece of a fragment with its byte offset from the fragment
   start, read from the fragment's index. *)
let piece_offsets (f : Objfile.Fragment.t) =
  let off = ref 0 in
  List.mapi
    (fun k p ->
      let o = !off in
      off := o + f.index.sizes.(k);
      (p, o))
    f.pieces
