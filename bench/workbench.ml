(* Builds and memoizes every artifact an experiment can ask for about
   one benchmark: the program, the baseline / metadata / optimized /
   BOLT binaries, the shared hardware profile, and the measured
   performance counters of each binary. *)

type measurement = { stats : Exec.Interp.stats; counters : Uarch.Core.counters }

type t = {
  spec : Progen.Spec.t;
  program : Ir.Program.t;
  env : Buildsys.Driver.env;
  base : Buildsys.Driver.result;
  prop : Propeller.Pipeline.result;
  bm : Buildsys.Driver.result;  (* --emit-relocs build for BOLT *)
  bolt : Boltsim.Driver.result;
  mutable measured : (string * measurement) list;
}

let interp_config (spec : Progen.Spec.t) =
  { Exec.Interp.default_config with requests = spec.requests }

let build ctx spec =
  (* Phase 1 includes ThinLTO-style cross-unit inlining — the transform
     that makes instrumented profiles stale (paper 2.2). *)
  let program = Codegen.Inline.program (Progen.Generate.program spec) in
  let env = Buildsys.Driver.make_env ~ctx () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:spec.Progen.Spec.name in
  let prop =
    Propeller.Pipeline.run ~config:(Propeller.Pipeline.config_of_spec spec) ~env ~program
      ~name:spec.Progen.Spec.name ()
  in
  (* The BM build shares codegen flags with the baseline, so its object
     actions all hit the cache; only the link differs. *)
  let bm =
    Buildsys.Driver.build env ~name:(spec.Progen.Spec.name ^ ".bm") ~program
      ~codegen_options:Codegen.default_options
      ~link_options:{ Linker.Link.default_options with emit_relocs = true }
  in
  (* The same hardware profile drives Propeller and BOLT (§5
     methodology); PM and BM binaries share their text layout. *)
  let bolt =
    Boltsim.Driver.optimize ~ctx ~profile:prop.profile ~binary:bm.binary
      ~is_asm:(Ir.Program.has_inline_asm program)
      ~hazards:spec.hazards ~name:spec.Progen.Spec.name ()
  in
  { spec; program; env; base; prop; bm; bolt; measured = [] }

let cache : (string, t) Hashtbl.t = Hashtbl.create 16

let get ctx spec =
  match Hashtbl.find_opt cache spec.Progen.Spec.name with
  | Some wb -> wb
  | None ->
    Printf.printf "[workbench: building %s ...]\n%!" spec.Progen.Spec.name;
    let wb = build ctx spec in
    Hashtbl.replace cache spec.Progen.Spec.name wb;
    wb

type variant = Base | Prop | Bolt

let variant_name = function Base -> "base" | Prop -> "propeller" | Bolt -> "bolt"

let binary wb = function
  | Base -> wb.base.binary
  | Prop -> Propeller.Pipeline.optimized_binary wb.prop
  | Bolt -> wb.bolt.Boltsim.Driver.binary

(* [binary] of [wb]'s program under the benchmark's traffic, on its
   pressure-preserving core. *)
let measure_binary wb binary =
  Diagnostics.Measure.run ~ctx:wb.env.Buildsys.Driver.ctx
    ~core:(Diagnostics.Measure.core_config wb.spec) ~requests:wb.spec.requests wb.program binary

let measure wb variant =
  let key = variant_name variant in
  match List.assoc_opt key wb.measured with
  | Some m -> m
  | None ->
    let stats, counters = measure_binary wb (binary wb variant) in
    let m = { stats; counters } in
    wb.measured <- (key, m) :: wb.measured;
    m

(* Performance improvement over baseline in the benchmark's own metric
   (walltime / latency / QPS all reduce to a cycle ratio here). *)
let improvement_pct wb variant =
  let b = (measure wb Base).counters.cycles in
  let v = (measure wb variant).counters.cycles in
  match wb.spec.metric with
  | `Walltime | `Latency -> (b -. v) /. b *. 100.0
  | `Qps -> ((b /. v) -. 1.0) *. 100.0

let metric_name (spec : Progen.Spec.t) =
  match spec.metric with `Walltime -> "Walltime" | `Latency -> "Latency" | `Qps -> "QPS"
