type entry = { id : int; round : int; policy : string; cycles : float; score : float }

type t = {
  name : string;
  requests : int;
  budget : int;
  seed : int;
  evaluated : int;
  rounds : int;
  base_cycles : float;
  exttsp_cycles : float;
  exttsp_score : float;
  winner_policy : string;
  winner_cycles : float;
  winner_score : float;
  win_vs_exttsp_pct : float;
  comparable_pairs : int;
  discordant_pairs : int;
  proxy_agreement : float;
  entries : entry list;
}

(* Ground-truth cycles of one binary. Control flow is a pure function
   of (block id, visit count), so every layout sees the same work. *)
let measure_cycles ~ctx ~core ~requests ~program binary =
  (snd (Measure.run ~ctx ~core ~requests program binary)).Uarch.Core.cycles

let analyze ?(pipeline = Propeller.Pipeline.default_config) ?(core = Uarch.Core.default_config)
    ?(requests = 40) ?(budget = 12) ?(seed = 1) ~(ctx : Support.Ctx.t) ~program ~name () =
  let env = Buildsys.Driver.make_env ~ctx () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name in
  let base_cycles = measure_cycles ~ctx ~core ~requests ~program base.Buildsys.Driver.binary in
  (* One pipeline run supplies the shared profile and metadata binary;
     every candidate reuses them, so the tournament varies layout and
     nothing else. *)
  let r = Propeller.Pipeline.run ~config:pipeline ~env ~program ~name () in
  let n_eval = ref 0 in
  let evaluate (c : Layout.Search.candidate) =
    let wpa_config =
      { pipeline.Propeller.Pipeline.wpa with
        Propeller.Wpa.layout_policy = c.policy;
        policy_params = c.params;
      }
    in
    let wpa =
      Propeller.Wpa.analyze ~config:wpa_config ~ctx ~layout_cache:env.Buildsys.Driver.layout_cache
        ~profile:(Propeller.Wpa.Lbr r.Propeller.Pipeline.profile)
        ~binary:r.Propeller.Pipeline.metadata_build.Buildsys.Driver.binary ()
    in
    let codegen_options, link_options =
      Propeller.Pipeline.optimize_options ~hugepages:pipeline.Propeller.Pipeline.hugepages wpa
    in
    let cand_name = Printf.sprintf "%s.cand%d" name !n_eval in
    incr n_eval;
    let b = Buildsys.Driver.build env ~name:cand_name ~program ~codegen_options ~link_options in
    let cycles = measure_cycles ~ctx ~core ~requests ~program b.Buildsys.Driver.binary in
    { Layout.Search.fitness = cycles; proxy = wpa.Propeller.Wpa.layout_score }
  in
  let report =
    Layout.Search.run ~recorder:ctx.Support.Ctx.recorder ~seed ~budget ~evaluate ()
  in
  let exttsp_cycles, exttsp_score =
    match report.baseline with
    | Some b -> (b.outcome.fitness, b.outcome.proxy)
    | None -> (nan, nan)
  in
  let winner = report.winner in
  {
    name;
    requests;
    budget;
    seed;
    evaluated = List.length report.entries;
    rounds = report.rounds;
    base_cycles;
    exttsp_cycles;
    exttsp_score;
    winner_policy = winner.candidate.policy;
    winner_cycles = winner.outcome.fitness;
    winner_score = winner.outcome.proxy;
    win_vs_exttsp_pct =
      (if exttsp_cycles > 0.0 then
         (exttsp_cycles -. winner.outcome.fitness) /. exttsp_cycles *. 100.0
       else 0.0);
    comparable_pairs = report.comparable_pairs;
    discordant_pairs = report.discordant_pairs;
    proxy_agreement = report.proxy_agreement;
    entries =
      List.map
        (fun (e : Layout.Search.entry) ->
          {
            id = e.id;
            round = e.round;
            policy = e.candidate.policy;
            cycles = e.outcome.fitness;
            score = e.outcome.proxy;
          })
        report.entries;
  }

(* Keys are chosen to stay clear of every judged-metric suffix in
   {!Compare.judged}: the whole object is informational. *)
let entry_to_json e =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int e.id);
      ("round", Obs.Json.Int e.round);
      ("policy", Obs.Json.String e.policy);
      ("po_cycles", Obs.Json.Float e.cycles);
      ("exttsp_objective", Obs.Json.Float e.score);
    ]

let to_json t =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String t.name);
      ("requests", Obs.Json.Int t.requests);
      ("search_budget", Obs.Json.Int t.budget);
      ("search_seed", Obs.Json.Int t.seed);
      ("evaluated", Obs.Json.Int t.evaluated);
      ("rounds", Obs.Json.Int t.rounds);
      ("base_cycles", Obs.Json.Float t.base_cycles);
      ("exttsp_po_cycles", Obs.Json.Float t.exttsp_cycles);
      ("exttsp_objective", Obs.Json.Float t.exttsp_score);
      ("winner_policy", Obs.Json.String t.winner_policy);
      ("winner_po_cycles", Obs.Json.Float t.winner_cycles);
      ("winner_objective", Obs.Json.Float t.winner_score);
      ("win_vs_exttsp_pct", Obs.Json.Float t.win_vs_exttsp_pct);
      ("comparable_pairs", Obs.Json.Int t.comparable_pairs);
      ("discordant_pairs", Obs.Json.Int t.discordant_pairs);
      ("proxy_agreement", Obs.Json.Float t.proxy_agreement);
      ("entries", Obs.Json.List (List.map entry_to_json t.entries));
    ]

let to_text t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "layout search (%s, %d requests, budget %d, seed %d)\n" t.name t.requests
       t.budget t.seed);
  Buffer.add_string buf
    (Printf.sprintf "  base cycles          %.0f\n" t.base_cycles);
  Buffer.add_string buf
    (Printf.sprintf "  ext-tsp cycles       %.0f  (objective %.1f)\n" t.exttsp_cycles
       t.exttsp_score);
  Buffer.add_string buf
    (Printf.sprintf "  winner               %s\n" t.winner_policy);
  Buffer.add_string buf
    (Printf.sprintf "  winner cycles        %.0f  (objective %.1f)\n" t.winner_cycles
       t.winner_score);
  Buffer.add_string buf
    (Printf.sprintf "  win vs ext-tsp       %+.3f%%\n" t.win_vs_exttsp_pct);
  Buffer.add_string buf
    (Printf.sprintf "  evaluations          %d in %d rounds\n" t.evaluated t.rounds);
  Buffer.add_string buf
    (Printf.sprintf "  score-vs-cycles gap  %d discordant of %d comparable pairs (agreement %.2f)\n"
       t.discordant_pairs t.comparable_pairs t.proxy_agreement);
  Buffer.add_string buf "  evaluation log\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "    #%-3d r%-2d %-14s cycles %-12.0f objective %.1f\n" e.id e.round
           e.policy e.cycles e.score))
    t.entries;
  Buffer.contents buf
