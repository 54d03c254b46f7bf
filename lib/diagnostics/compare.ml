type direction = Higher | Lower

type rule = { suffix : string; direction : direction }

type verdict = {
  metric : string;
  baseline : float;
  current : float;
  delta_pct : float;
  direction : direction;
  regressed : bool;
  improved : bool;
}

type outcome = { verdicts : verdict list; missing : string list; notes : string list }

let rule suffix direction = { suffix; direction }

let judged =
  let r = rule in
  [
    r "speedup_pct.propeller" Higher;
    r "speedup_pct.bolt" Higher;
    r "summary.geomean_speedup_propeller" Higher;
    r "profile_quality.block_coverage" Higher;
    r "profile_quality.byte_coverage" Higher;
    r "profile_quality.mismatch_rate" Lower;
    r "layout_quality.exttsp_norm" Higher;
    r "layout_quality.fall_through_rate" Higher;
    r "layout_quality.blocks_missing" Lower;
  ]

(* Flatten numeric leaves to dotted paths. List elements keyed by their
   "name" member when present (stable under reordering), else by index. *)
let flatten json =
  let out = Hashtbl.create 256 in
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let rec go prefix = function
    | Obs.Json.Int i -> Hashtbl.replace out prefix (float_of_int i)
    | Obs.Json.Float f -> Hashtbl.replace out prefix f
    | Obs.Json.Obj fields -> List.iter (fun (k, v) -> go (join prefix k) v) fields
    | Obs.Json.List items ->
      List.iteri
        (fun i item ->
          let key =
            match Obs.Json.member "name" item with
            | Some (Obs.Json.String n) -> n
            | _ -> string_of_int i
          in
          go (join prefix key) item)
        items
    | Obs.Json.Null | Obs.Json.Bool _ | Obs.Json.String _ -> ()
  in
  go "" json;
  out

let suffix_matches key rule =
  let lk = String.length key and ls = String.length rule.suffix in
  lk >= ls
  && String.sub key (lk - ls) ls = rule.suffix
  && (lk = ls || key.[lk - ls - 1] = '.')

let judge key = List.find_opt (suffix_matches key) judged

let schema_version json =
  match Obs.Json.member "schema_version" json with
  | Some (Obs.Json.Int v) -> Ok v
  | _ -> Error "missing or non-integer schema_version"

let compare ?(threshold_pct = 5.0) ~baseline ~current () =
  match (baseline, current) with
  | Obs.Json.Obj _, Obs.Json.Obj _ -> (
    match (schema_version baseline, schema_version current) with
    | Error e, _ -> Error ("baseline: " ^ e)
    | _, Error e -> Error ("current: " ^ e)
    | Ok vb, Ok vc when vb > vc ->
      (* An older current file against a newer baseline cannot be the
         intended comparison direction; refuse rather than silently
         judge a subset. *)
      Error
        (Printf.sprintf "schema_version mismatch: baseline %d is newer than current %d" vb
           vc)
    | Ok vb, Ok vc ->
      let notes = ref [] in
      if vb < vc then
        notes :=
          [
            Printf.sprintf
              "baseline schema v%d predates current v%d; judged metrics absent from the \
               baseline are informational, not regressions"
              vb vc;
          ];
      let fb = flatten baseline and fc = flatten current in
      let keys =
        Hashtbl.fold (fun k _ acc -> k :: acc) fb [] |> List.sort String.compare
      in
      let verdicts = ref [] and missing = ref [] in
      List.iter
        (fun key ->
          match judge key with
          | None -> ()
          | Some rule -> (
            let base = Hashtbl.find fb key in
            match Hashtbl.find_opt fc key with
            | None -> missing := key :: !missing
            | Some cur ->
              let denom = Float.max (Float.abs base) 1.0 in
              let delta_pct = (cur -. base) /. denom *. 100.0 in
              let worse =
                match rule.direction with Higher -> -.delta_pct | Lower -> delta_pct
              in
              verdicts :=
                {
                  metric = key;
                  baseline = base;
                  current = cur;
                  delta_pct;
                  direction = rule.direction;
                  regressed = worse > threshold_pct;
                  improved = -.worse > threshold_pct;
                }
                :: !verdicts))
        keys;
      (* Judged keys the current file gained over an older baseline:
         nothing to diff against, so note them instead of judging. *)
      let gained =
        Hashtbl.fold
          (fun k v acc ->
            if judge k <> None && not (Hashtbl.mem fb k) then (k, v) :: acc else acc)
          fc []
        |> List.sort Stdlib.compare
      in
      List.iter
        (fun (k, v) ->
          notes :=
            Printf.sprintf "%s = %g is new in the current schema (no baseline value)" k v
            :: !notes)
        gained;
      Ok { verdicts = List.rev !verdicts; missing = List.rev !missing; notes = List.rev !notes })
  | _ -> Error "bench JSON must be an object at top level"

let regressions o = List.filter (fun v -> v.regressed) o.verdicts

let ok o = regressions o = [] && o.missing = []

let render_verdicts o =
  let buf = Buffer.create 512 in
  List.iter
    (fun v ->
      let mark =
        if v.regressed then "REGRESSED" else if v.improved then "improved" else "ok"
      in
      Buffer.add_string buf
        (Printf.sprintf "%-9s %-55s %12.4f -> %12.4f  (%+.2f%%)\n" mark v.metric v.baseline
           v.current v.delta_pct))
    o.verdicts;
  List.iter
    (fun k -> Buffer.add_string buf (Printf.sprintf "MISSING   %s (present in baseline)\n" k))
    o.missing;
  (if o.verdicts = [] && o.missing = [] then
     Buffer.add_string buf "no judged metrics found in baseline\n");
  Buffer.contents buf

let render_notes o =
  String.concat "" (List.map (fun n -> Printf.sprintf "NOTE      %s\n" n) o.notes)
