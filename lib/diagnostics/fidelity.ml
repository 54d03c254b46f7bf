type side = {
  source : Perfmon.Source.t;
  profile_samples : int;
  profile_records : int;
  distinct_edges : int;
  hot_funcs : int;
  exttsp_norm : float;
  fall_through_rate : float;
  po_cycles : float;
  speedup_pct : float;
}

type t = {
  name : string;
  requests : int;
  base_cycles : float;
  base_fall_through_rate : float;
  lbr : side;
  sampled : side;
  weight_correlation : float;
  fall_through_gap : float;
  cycle_gap_pct : float;
}

(* Ground-truth measurement of one binary: simulated cycles from the
   core model and the achieved fall-through rate from the interpreter's
   retired-branch statistics. *)
let measure ~ctx ~core ~requests ~program binary =
  let image = Exec.Image.build program binary in
  let c = Uarch.Core.create core in
  let stats =
    Exec.Interp.run_tape ~ctx image
      { Exec.Interp.default_config with requests }
      ~drain:(Uarch.Core.consume c)
  in
  let sites = stats.Exec.Interp.cond_branches + stats.Exec.Interp.uncond_jumps in
  let ftr =
    if sites = 0 then 0.0
    else
      float_of_int (stats.Exec.Interp.cond_branches - stats.Exec.Interp.cond_taken)
      /. float_of_int sites
  in
  (Uarch.Core.cycles c, ftr)

(* Per-function weight fractions of one profile: each hot function's
   share of total sample mass. Fractions, not raw counts — the two
   sources operate at wildly different sampling scales and only the
   shape of the distribution is comparable. *)
let weight_fractions (dcfg : Propeller.Dcfg.t) =
  let total =
    Hashtbl.fold (fun _ (d : Propeller.Dcfg.dfunc) acc -> acc + d.dsamples) dcfg.funcs 0
  in
  let out = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name (d : Propeller.Dcfg.dfunc) ->
      if d.dsamples > 0 then
        Hashtbl.replace out name (float_of_int d.dsamples /. float_of_int (max 1 total)))
    dcfg.funcs;
  out

let correlate a b =
  let names = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) a;
  Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) b;
  let pairs =
    Hashtbl.fold (fun k () acc -> k :: acc) names []
    |> List.sort compare
    |> List.map (fun k ->
           ( Option.value ~default:0.0 (Hashtbl.find_opt a k),
             Option.value ~default:0.0 (Hashtbl.find_opt b k) ))
  in
  Support.Stats.pearson pairs

let analyze ?(pipeline = Propeller.Pipeline.default_config)
    ?(core = Uarch.Core.default_config) ?(requests = 40) ~ctx ~program ~name () =
  let env = Buildsys.Driver.make_env ~ctx () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name in
  let run source =
    Propeller.Pipeline.run
      ~config:{ pipeline with Propeller.Pipeline.profile_source = source }
      ~env ~program ~name ()
  in
  (* The metadata phase is identical under both sources, so the second
     run's PM objects all come from the shared env's cache. *)
  let rl = run Perfmon.Source.Lbr in
  let rs = run Perfmon.Source.Sampled in
  let base_cycles, base_ftr =
    measure ~ctx ~core ~requests ~program base.Buildsys.Driver.binary
  in
  let side (r : Propeller.Pipeline.result) =
    let dcfg =
      Propeller.Dcfg.build ~profile:r.profile ~binary:r.metadata_build.binary
    in
    let lq = Layoutq.analyze ~dcfg ~final:(Propeller.Pipeline.optimized_binary r) () in
    let cycles, ftr =
      measure ~ctx ~core ~requests ~program (Propeller.Pipeline.optimized_binary r)
    in
    ( dcfg,
      {
        source = r.source;
        profile_samples = r.profile.Perfmon.Lbr.num_samples;
        profile_records = r.profile.Perfmon.Lbr.num_records;
        distinct_edges = Perfmon.Lbr.distinct_edges r.profile;
        hot_funcs = r.wpa.Propeller.Wpa.hot_funcs;
        exttsp_norm = lq.exttsp_norm;
        fall_through_rate = ftr;
        po_cycles = cycles;
        speedup_pct =
          (if base_cycles = 0.0 then 0.0
           else (base_cycles -. cycles) /. base_cycles *. 100.0);
      } )
  in
  let dcfg_l, lbr = side rl in
  let dcfg_s, sampled = side rs in
  {
    name;
    requests;
    base_cycles;
    base_fall_through_rate = base_ftr;
    lbr;
    sampled;
    weight_correlation = correlate (weight_fractions dcfg_l) (weight_fractions dcfg_s);
    fall_through_gap = lbr.fall_through_rate -. sampled.fall_through_rate;
    cycle_gap_pct =
      (if lbr.po_cycles = 0.0 then 0.0
       else (sampled.po_cycles -. lbr.po_cycles) /. lbr.po_cycles *. 100.0);
  }

(* Keys are chosen to stay clear of every judged-metric suffix in
   {!Compare.judged}: the whole object is informational. *)
let side_to_json s =
  Obs.Json.Obj
    [
      ("source", Obs.Json.String (Perfmon.Source.to_string s.source));
      ("profile_samples", Obs.Json.Int s.profile_samples);
      ("profile_records", Obs.Json.Int s.profile_records);
      ("distinct_edges", Obs.Json.Int s.distinct_edges);
      ("hot_funcs", Obs.Json.Int s.hot_funcs);
      ("exttsp_norm", Obs.Json.Float s.exttsp_norm);
      ("fall_through_rate", Obs.Json.Float s.fall_through_rate);
      ("po_cycles", Obs.Json.Float s.po_cycles);
      ("speedup_pct", Obs.Json.Float s.speedup_pct);
    ]

let to_json t =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String t.name);
      ("requests", Obs.Json.Int t.requests);
      ("base_cycles", Obs.Json.Float t.base_cycles);
      ("base_fall_through_rate", Obs.Json.Float t.base_fall_through_rate);
      ("lbr", side_to_json t.lbr);
      ("sampled", side_to_json t.sampled);
      ("weight_correlation", Obs.Json.Float t.weight_correlation);
      ("fall_through_gap", Obs.Json.Float t.fall_through_gap);
      ("cycle_gap_pct", Obs.Json.Float t.cycle_gap_pct);
    ]

let to_text t =
  let buf = Buffer.create 1024 in
  let section title rows =
    Buffer.add_string buf title;
    Buffer.add_char buf '\n';
    let width = List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 rows in
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf "  %s%s  %s\n" k (String.make (width - String.length k) ' ') v))
      rows;
    Buffer.add_char buf '\n'
  in
  let side_rows (s : side) =
    [
      ("profile samples", string_of_int s.profile_samples);
      ("profile records", string_of_int s.profile_records);
      ("distinct edges", string_of_int s.distinct_edges);
      ("hot funcs", string_of_int s.hot_funcs);
      ("ext-TSP normalized", Printf.sprintf "%.4f" s.exttsp_norm);
      ("fall-through rate", Printf.sprintf "%.2f%%" (100.0 *. s.fall_through_rate));
      ("po cycles", Printf.sprintf "%.0f" s.po_cycles);
      ("speedup vs base", Printf.sprintf "%+.2f%%" s.speedup_pct);
    ]
  in
  section
    (Printf.sprintf "profile fidelity (%s, %d requests)" t.name t.requests)
    [
      ("base cycles", Printf.sprintf "%.0f" t.base_cycles);
      ( "base fall-through rate",
        Printf.sprintf "%.2f%%" (100.0 *. t.base_fall_through_rate) );
    ];
  section "lbr source" (side_rows t.lbr);
  section "sampled source" (side_rows t.sampled);
  section "gap (lbr vs sampled)"
    [
      ("weight correlation", Printf.sprintf "%.4f" t.weight_correlation);
      ("fall-through gap", Printf.sprintf "%+.2f pp" (100.0 *. t.fall_through_gap));
      ("cycle gap", Printf.sprintf "%+.2f%%" t.cycle_gap_pct);
    ];
  Buffer.contents buf
