type candidate = { policy : string; params : Policy.params }

type outcome = { fitness : float; proxy : float }

type entry = { id : int; round : int; candidate : candidate; outcome : outcome }

type report = {
  budget : int;
  seed : int;
  rounds : int;
  entries : entry list;
  winner : entry;
  baseline : entry option;
  comparable_pairs : int;
  discordant_pairs : int;
  proxy_agreement : float;
}

(* Mutate the incumbent candidate: one random tweak per child. All
   choice arrays are fixed so the proposal distribution is part of the
   determinism contract. *)
let forward_windows = [| 256; 512; 1024; 2048; 4096 |]
let backward_windows = [| 160; 320; 640; 1280; 2560 |]
let weight_scales = [| 0.5; 0.8; 1.25; 2.0 |]
let split_chains = [| 8; 16; 24; 48 |]
let step_budgets = [| 256; 512; 1024; 2048 |]

let mutate rng (c : candidate) =
  let p = c.params in
  let e = p.exttsp in
  match Support.Rng.int rng 8 with
  | 0 ->
    let fw = Support.Rng.choose rng weight_scales *. e.Exttsp.forward_weight in
    { c with params = { p with exttsp = { e with forward_weight = fw } } }
  | 1 ->
    let bw = Support.Rng.choose rng weight_scales *. e.Exttsp.backward_weight in
    { c with params = { p with exttsp = { e with backward_weight = bw } } }
  | 2 ->
    { c with
      params = { p with exttsp = { e with forward_window = Support.Rng.choose rng forward_windows } }
    }
  | 3 ->
    { c with
      params =
        { p with exttsp = { e with backward_window = Support.Rng.choose rng backward_windows } }
    }
  | 4 ->
    { c with
      params = { p with exttsp = { e with max_split_chain = Support.Rng.choose rng split_chains } }
    }
  | 5 ->
    (* Reseed local search and resize its budget. *)
    { c with
      params =
        { p with seed = Support.Rng.int rng 0x3fffffff; steps = Support.Rng.choose rng step_budgets }
    }
  | 6 -> { c with policy = Support.Rng.choose rng (Array.of_list Policy.names) }
  | _ ->
    (* Compound: switch policy and reseed in one step, so policy
       switches are not stuck with the incumbent's seed. *)
    { policy = Support.Rng.choose rng (Array.of_list Policy.names);
      params = { p with seed = Support.Rng.int rng 0x3fffffff };
    }

let pair_stats entries =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let comparable = ref 0 and discordant = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = arr.(i).outcome and b = arr.(j).outcome in
      if a.fitness <> b.fitness && a.proxy <> b.proxy then begin
        incr comparable;
        (* Concordant: the higher proxy score has the lower cycle
           count. *)
        let proxy_says_a = a.proxy > b.proxy in
        let cycles_say_a = a.fitness < b.fitness in
        if proxy_says_a <> cycles_say_a then incr discordant
      end
    done
  done;
  let comparable = !comparable and discordant = !discordant in
  let agreement =
    if comparable = 0 then 1.0
    else float_of_int (comparable - discordant) /. float_of_int comparable
  in
  (comparable, discordant, agreement)

let run ?recorder ?(seed = 1) ?(round_size = 4) ~budget ~evaluate () =
  let budget = max 1 budget in
  let rng = Support.Rng.split (Support.Rng.create (Int64.of_int seed)) 0x5ea5c4 in
  let entries = ref [] in
  let next_id = ref 0 in
  let best = ref None in
  let better (a : entry) (b : entry) =
    a.outcome.fitness < b.outcome.fitness
    || (a.outcome.fitness = b.outcome.fitness && a.id < b.id)
  in
  let eval round candidate =
    let outcome = evaluate candidate in
    let e = { id = !next_id; round; candidate; outcome } in
    incr next_id;
    entries := e :: !entries;
    (match !best with Some b when not (better e b) -> () | _ -> best := Some e);
    e
  in
  let run_round round candidates =
    let body () =
      List.iter (fun c -> if !next_id < budget then ignore (eval round c)) candidates;
      match recorder with
      | None -> ()
      | Some r ->
        Obs.Recorder.span_args r
          [
            ("round", Obs.Trace.Int round);
            ("evaluated", Obs.Trace.Int !next_id);
            ( "best_fitness",
              Obs.Trace.Float (match !best with Some b -> b.outcome.fitness | None -> nan) );
          ]
    in
    match recorder with
    | None -> body ()
    | Some r -> Obs.Recorder.with_span r "layout_search.round" body
  in
  (* Round 0: every registered policy under default parameters, seeded
     with the tournament seed. Guarantees an exttsp baseline entry. *)
  let opening =
    List.map
      (fun name -> { policy = name; params = { Policy.default_params with seed } })
      Policy.names
  in
  run_round 0 opening;
  let round = ref 0 in
  while !next_id < budget do
    incr round;
    let incumbent = (Option.get !best).candidate in
    let children = List.init round_size (fun _ -> mutate rng incumbent) in
    run_round !round children
  done;
  let entries = List.rev !entries in
  let winner = Option.get !best in
  let baseline = List.find_opt (fun e -> e.round = 0 && e.candidate.policy = "exttsp") entries in
  let comparable_pairs, discordant_pairs, proxy_agreement = pair_stats entries in
  { budget; seed; rounds = !round + 1; entries; winner; baseline; comparable_pairs;
    discordant_pairs; proxy_agreement }
