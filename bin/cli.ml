(* The flag table and run plumbing shared by every propeller subcommand.

   Each flag is defined once here, so it spells and behaves the same in
   every subcommand that takes it; benchmark lookup, context setup,
   output writing, JSON emission and recorder export likewise have one
   implementation. *)

open Cmdliner

let flag names doc = Arg.(value & flag & info names ~doc)

let opt c default names docv doc = Arg.(value & opt c default & info names ~docv ~doc)

let jobs_term =
  opt Arg.(some int) None [ "j"; "jobs" ] "N"
    "Domain pool width for per-function/per-unit fan-out (default 1). Outputs are \
     byte-identical for any N."

let seed_term =
  opt Arg.(some int) None [ "seed" ] "N"
    "Override the fault plan's seed (see $(b,--faults)). The same seed and plan replay the \
     same faults, byte-identically. Inert without $(b,--faults)."

let faults_term =
  opt Arg.(some string) None [ "faults" ] "PLAN"
    "Arm seeded fault injection. $(docv) is a comma-separated key=value spec, e.g. \
     $(b,seed=7,action=0.2,corrupt=0.1,straggle=0.1,shard-drop=0.05). Keys: seed, action, \
     persist, straggle, straggle-factor, corrupt, shard-drop, shards, attempts, backoff, \
     backoff-mult."

let trace_term =
  opt Arg.(some string) None [ "trace" ] "FILE"
    "Write a Chrome trace-event JSON of the run (load in Perfetto / chrome://tracing)."

let metrics_out_term =
  opt Arg.(some string) None [ "metrics-out" ] "FILE"
    "Write the metrics report as JSON to $(docv)."

let self_profile_term =
  flag [ "self-profile" ]
    "Record host wall-clock and GC deltas per span and print the tool's own hotspot table \
     after the run. Never perturbs simulated metrics or image digests."

let self_profile_out_term =
  opt Arg.(some string) None [ "self-profile-out" ] "FILE"
    "Write the self-profile (per-path host seconds, allocation, GC counts) as JSON to \
     $(docv). Implies $(b,--self-profile)."

(* Enum-valued flag converter: an unknown value is a usage error (exit
   124 via Cmdliner) that names each valid value, never a bare
   exception. *)
let enum_conv ~what values =
  let alts = String.concat ", " (List.map fst values) in
  let parse s =
    match List.assoc_opt s values with
    | Some v -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf "invalid %s %S; valid values are: %s" what s alts))
  in
  let print fmt v =
    match List.find_opt (fun (_, v') -> v' = v) values with
    | Some (name, _) -> Format.pp_print_string fmt name
    | None -> Format.pp_print_string fmt "<unknown>"
  in
  Arg.conv (parse, print)

let profile_source_term =
  opt
    (enum_conv ~what:"profile source"
       (List.map (fun s -> (Perfmon.Source.to_string s, s)) Perfmon.Source.all))
    Perfmon.Source.Lbr [ "profile-source" ] "SOURCE"
    "Where the layout profile comes from: $(b,lbr) (hardware branch records, the paper's \
     path) or $(b,sampled) (portable software stack sampler; CFG edge weights are \
     synthesized AutoFDO-style, no mispredict bits)."

(* String-valued on purpose: Wpa.config stores the policy name and
   resolves it against the registry at use, and the registry is the
   single source of truth for what is valid. *)
let layout_policy_term =
  let names = Layout.Policy.names in
  opt
    (enum_conv ~what:"layout policy" (List.map (fun n -> (n, n)) names))
    "exttsp" [ "layout-policy" ] "NAME"
    (Printf.sprintf
       "Block-layout policy for WPA. Valid values: %s. The default $(b,exttsp) is the \
        paper's Ext-TSP; the others are the pluggable alternatives the layout-search \
        harness tournaments over."
       (String.concat ", " names))

let benchmark_term =
  Arg.(value & opt string "505.mcf" & info [ "b"; "benchmark" ] ~doc:"Benchmark name (Table 2).")

let requests_term =
  Arg.(value & opt (some int) None & info [ "r"; "requests" ] ~doc:"Workload requests override.")

let json_term = flag [ "json" ] "Emit the report as JSON."

let out_term =
  opt Arg.(some string) None [ "o"; "out" ] "FILE" "Write the report to $(docv) instead of stdout."

(* The run flags bundled. Subcommands that take only some of them fill
   the rest from [defaults]. *)
type common = {
  jobs : int option;
  seed : int option;
  faults : string option;
  trace : string option;
  metrics_out : string option;
  self_profile : bool;
  self_profile_out : string option;
}

let defaults =
  {
    jobs = None;
    seed = None;
    faults = None;
    trace = None;
    metrics_out = None;
    self_profile = false;
    self_profile_out = None;
  }

let common_term =
  let make jobs seed faults trace metrics_out self_profile self_profile_out =
    { jobs; seed; faults; trace; metrics_out; self_profile; self_profile_out }
  in
  Term.(
    const make $ jobs_term $ seed_term $ faults_term $ trace_term $ metrics_out_term
    $ self_profile_term $ self_profile_out_term)

let write_file file contents =
  match open_out file with
  | oc ->
    output_string oc contents;
    close_out oc
  | exception Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n" file msg;
    exit 1

let parse_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> Error ("cannot read: " ^ msg)
  | contents -> Result.map_error (fun e -> "invalid JSON: " ^ e) (Obs.Json.parse contents)

(* Read and parse a JSON file; exit 2 naming [label] on a miss. *)
let read_json label file =
  match parse_file file with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "%s %s: %s\n" label file e;
    exit 2

(* Every emitted JSON document round-trips through the parser before it
   leaves the tool; a document we cannot re-read is a bug, not output. *)
let json_string json =
  let s = Obs.Json.to_string json ^ "\n" in
  match Obs.Json.parse s with
  | Ok _ -> s
  | Error e ->
    Printf.eprintf "internal error: emitted JSON does not parse: %s\n" e;
    exit 1

(* Render a report as JSON or text, to [out] (announced as
   "[label]: FILE") or to stdout. *)
let emit ~label ~json ~out ~to_json ~to_text =
  let rendered = if json then json_string (to_json ()) else to_text () in
  match out with
  | Some file ->
    write_file file rendered;
    Printf.printf "%s: %s\n" label file
  | None -> print_string rendered

(* Resolve a benchmark name (exit 2 with the known list on a miss) and
   apply the --requests override. *)
let lookup_spec ~benchmark ~requests =
  match Progen.Suite.by_name benchmark with
  | None ->
    Printf.eprintf "unknown benchmark %S; known: %s\n" benchmark
      (String.concat ", " (List.map (fun (s : Progen.Spec.t) -> s.name) Progen.Suite.all));
    exit 2
  | Some spec -> (
    match requests with
    | Some r -> { spec with Progen.Spec.requests = r }
    | None -> spec)

(* Turn the run flags into the run's execution context: a fresh
   recorder, a pool --jobs wide (default 1; exit 2 below 1), the
   --faults plan (exit 2 on a bad spec) with --seed overriding its
   seed. The pool's workers are joined at exit. *)
let context c =
  let jobs = Option.value c.jobs ~default:1 in
  if jobs < 1 then begin
    Printf.eprintf "--jobs: expected a positive pool width, got %d\n" jobs;
    exit 2
  end;
  let plan =
    match c.faults with
    | None -> None
    | Some spec -> (
      match Faultsim.Plan.of_spec spec with
      | Error e ->
        Printf.eprintf "--faults: %s\n" e;
        exit 2
      | Ok p -> (
        match c.seed with
        | Some s -> Some { p with Faultsim.Plan.seed = s }
        | None -> Some p))
  in
  let ctx =
    Support.Ctx.create ~recorder:(Obs.Recorder.create ()) ~pool:(Support.Pool.create ~jobs)
      ?faults:plan ()
  in
  if c.self_profile || c.self_profile_out <> None then
    Obs.Recorder.enable_self_profile ctx.Support.Ctx.recorder;
  ctx

(* Write the trace, metrics and self-profile the run flags ask for.
   The trace and self-profile are re-parsed with our own JSON parser
   before they leave the tool, so the smoke scripts need no external
   JSON tooling. *)
let export recorder c =
  let write_validated what file contents =
    write_file file contents;
    match Obs.Json.parse contents with
    | Ok _ -> ()
    | Error e ->
      Printf.eprintf "%s: INVALID JSON written to %s: %s\n" what file e;
      exit 1
  in
  Option.iter
    (fun file ->
      write_validated "trace" file (Obs.Recorder.trace_json recorder);
      Printf.printf "trace: %d events -> %s (valid JSON)\n"
        (Obs.Trace.num_events (Obs.Recorder.trace recorder))
        file)
    c.trace;
  Option.iter
    (fun file ->
      write_file file (Obs.Recorder.metrics_json recorder);
      Printf.printf "metrics: %s\n" file)
    c.metrics_out;
  if c.self_profile || c.self_profile_out <> None then begin
    let sp = Obs.Recorder.selfprof recorder in
    Option.iter
      (fun file ->
        write_validated "self-profile" file (Obs.Json.to_string (Obs.Selfprof.to_json sp) ^ "\n");
        Printf.printf "self-profile: %s (valid JSON)\n" file)
      c.self_profile_out;
    let hotspots = Obs.Selfprof.hotspots ~limit:10 sp in
    if hotspots <> [] then begin
      print_endline "self-profile hotspots (host time, coordinator domain):";
      print_string (Obs.Selfprof.render_hotspots hotspots)
    end
  end

(* Run [f] under the flight recorder's crash guard: on any exception the
   recorder's last-K event ring is dumped to stderr before the exception
   propagates, so a crash report carries the run's final moments. *)
let with_flight_guard recorder f =
  try f ()
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    prerr_string (Obs.Recorder.flight_dump recorder);
    Printexc.raise_with_backtrace exn bt
