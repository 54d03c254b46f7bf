(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md 3 for the experiment index).

   Usage: main.exe [options] [experiment ...]
   Experiments: table2 table3 table5 fig4 fig5 fig6 fig7 fig8 fig9 spec
                ablation_split ablation_inter ablation_clusters
                layout_search micro quick all (default: all)

   Options:
     --json-out FILE       also write a machine-readable BENCH_*.json
                           (schema in EXPERIMENTS.md); when no
                           experiments are named, only the JSON is
                           produced
     --json-bench A,B,...  benchmarks to include in the JSON
                           (default: 505.mcf)
     --json-requests N     workload-requests override for the JSON
                           benchmarks (keeps CI runs fast) *)

let experiments =
  [
    ("table2", Experiments.table2);
    ("table3", Experiments.table3);
    ("table5", Experiments.table5);
    ("fig4", Experiments.fig4);
    ("fig5", Experiments.fig5);
    ("fig6", Experiments.fig6);
    ("fig7", Experiments.fig7);
    ("fig8", Experiments.fig8);
    ("fig9", Experiments.fig9);
    ("spec", Experiments.spec_sweep);
    ("ablation_split", Experiments.ablation_split);
    ("ablation_rounds", Experiments.ablation_rounds);
    ("ablation_prefetch", Experiments.ablation_prefetch);
    ("ablation_inter", Experiments.ablation_inter);
    ("ablation_clusters", Experiments.ablation_clusters);
    ("layout_search", Experiments.layout_search);
    ("micro", Micro.run);
  ]

let quick () =
  (* A fast sanity pass on the smallest benchmark only. *)
  let wb = Workbench.get (Option.get (Progen.Suite.by_name "505.mcf")) in
  Printf.printf "quick: mcf propeller %+.2f%%, bolt %+.2f%% vs base\n"
    (Workbench.improvement_pct wb Workbench.Prop)
    (Workbench.improvement_pct wb Workbench.Bolt)

let run_one name =
  match List.assoc_opt name experiments with
  | Some f ->
    let t0 = Unix.gettimeofday () in
    f ();
    Printf.printf "\n[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0)
  | None ->
    if name = "quick" then quick ()
    else begin
      Printf.eprintf "unknown experiment %S; available: quick all %s\n" name
        (String.concat " " (List.map fst experiments));
      exit 2
    end

type options = {
  mutable json_out : string option;
  mutable json_bench : string list;
  mutable json_requests : int option;
  mutable jobs : int option;
  mutable names : string list;  (* experiments, in order *)
}

let usage_exit () =
  Printf.eprintf
    "usage: main.exe [--json-out FILE] [--json-bench A,B] [--json-requests N] [--jobs N] \
     [experiment ...]\n";
  exit 2

let parse_args argv =
  let o =
    {
      json_out = None;
      json_bench = [ "505.mcf" ];
      json_requests = None;
      jobs = None;
      names = [];
    }
  in
  let positive flag n =
    match int_of_string_opt n with
    | Some n when n > 0 -> n
    | _ ->
      Printf.eprintf "%s: positive integer expected, got %S\n" flag n;
      exit 2
  in
  let rec go = function
    | [] -> o
    | "--json-out" :: file :: rest ->
      o.json_out <- Some file;
      go rest
    | "--json-bench" :: names :: rest ->
      o.json_bench <- String.split_on_char ',' names;
      go rest
    | "--json-requests" :: n :: rest ->
      o.json_requests <- Some (positive "--json-requests" n);
      go rest
    | "--jobs" :: n :: rest ->
      o.jobs <- Some (positive "--jobs" n);
      go rest
    | ("--json-out" | "--json-bench" | "--json-requests" | "--jobs") :: [] ->
      usage_exit ()
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" -> usage_exit ()
    | name :: rest ->
      o.names <- o.names @ [ name ];
      go rest
  in
  go (List.tl (Array.to_list argv))

let emit_json o file =
  let specs =
    List.map
      (fun name ->
        match Progen.Suite.by_name name with
        | Some s -> s
        | None ->
          Printf.eprintf "--json-bench: unknown benchmark %S\n" name;
          exit 2)
      o.json_bench
  in
  Jsonout.emit ~file ~specs ~requests:o.json_requests ()

let () =
  let o = parse_args Sys.argv in
  (match o.jobs with Some j -> Support.Pool.set_default_jobs j | None -> ());
  let names =
    match (o.names, o.json_out) with
    | [], Some _ -> []  (* JSON-only run *)
    | [], None | [ "all" ], _ -> List.map fst experiments
    | names, _ -> names
  in
  Printf.printf "Propeller reproduction bench (deterministic; seeds fixed)\n%!";
  let t0 = Unix.gettimeofday () in
  List.iter run_one names;
  Option.iter (emit_json o) o.json_out;
  if names <> [] then
    Printf.printf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
