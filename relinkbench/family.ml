(* Workloads and the program families they draw their inputs from.

   A run never measures one program: the cost of a relink or of a
   simulated batch varies by a quarter or more from one generated
   program to the next (hot-region shape decides how many units are
   recompiled and how many cache misses are simulated), so a run works
   through a sequence of programs derived from its seed and reports
   medians over all of them. *)

type kind = Cold | Warm | Simulate

type workload = { name : string; kind : kind; jobs : int }

let workloads =
  [
    { name = "cold-clang"; kind = Cold; jobs = 1 };
    { name = "cold-clang-j2"; kind = Cold; jobs = 2 };
    { name = "warm-clang"; kind = Warm; jobs = 1 };
    { name = "simulate-mcf"; kind = Simulate; jobs = 1 };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

(* Relink programs keep clang's per-function block counts, block sizes
   and cold-unit share, at a quarter of its units and a quarter of its
   functions per unit, so one cold relink takes under a second and a
   run sees enough programs for a steady median. The profiling run
   shrinks by the same factor: a request costs about the same in a
   smaller program, so at clang's request count profiling would weigh
   sixteen times more against link and codegen than it does in clang. *)
let relink_spec =
  let clang = Progen.Suite.clang in
  {
    clang with
    Progen.Spec.num_units = clang.num_units / 4;
    funcs_per_unit_mean = clang.funcs_per_unit_mean /. 4.0;
    requests = clang.requests / 16;
  }

let simulate_spec =
  match Progen.Suite.by_name "505.mcf" with
  | Some s -> s
  | None -> failwith "Family: 505.mcf missing from Progen.Suite"

type family = Relink | Sim

let family = function Cold | Warm -> Relink | Simulate -> Sim

let family_name = function Relink -> "relink" | Sim -> "simulate"

let base_spec = function Relink -> relink_spec | Sim -> simulate_spec

(* The default seed is the suite spec's own seed. *)
let default_seed f = Int64.to_int (base_spec f).Progen.Spec.seed

(* Programs per cycle: a run that outlasts them starts over from program
   0; golden.json holds one entry per program of the default seed. *)
let cycle = function Relink -> 48 | Sim -> 64

(* Program [k] of a run: a stream split off a hash of the run seed.
   Splitting the raw seed would not do: split draws from seed + 2k + 1,
   so seed s + 2 would replay seed s's programs one index later. *)
let program_seed ~seed k =
  let run = Support.Rng.next (Support.Rng.create (Int64.of_int seed)) in
  Support.Rng.next (Support.Rng.split (Support.Rng.create run) k)

let spec f ~seed k = { (base_spec f) with Progen.Spec.seed = program_seed ~seed (k mod cycle f) }

(* The pipeline and measurement-core settings the bench suite uses for
   a spec (bench/workbench.ml); the profiling run has the spec's
   request count. *)
let pipeline_config (spec : Progen.Spec.t) =
  {
    Propeller.Pipeline.default_config with
    profile_run = { Exec.Interp.default_config with requests = spec.requests };
    hugepages = spec.hugepages;
  }

let core_config (spec : Progen.Spec.t) =
  let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1) in
  { Uarch.Core.default_config with hugepages = spec.hugepages; page_scale_bits = log2 spec.scale 0 }

(* Ops per program: a cold relink, a warm rerun after the set-up's cold
   relink, or batches on the image set up. Few ops per program leave
   time for more programs in a run, and the program mix, not the
   repeats, is what spreads the medians. *)
let ops_per_program = function Cold -> 1 | Warm -> 1 | Simulate -> 4

(* A simulated batch is as many requests as retire about this many
   simulated instructions, counted on a calibration batch. With a fixed
   request count, batch cost varied threefold between mcf programs
   whose requests differ in length. *)
let batch_instructions = 1_000_000

let calibration_requests = 20

(* Requests of the output-check batch of a relinked image. *)
let check_requests = 10
