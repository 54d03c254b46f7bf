(* Golden outputs of the default seeds (golden.json, compiled in): per
   program of a family, the optimized image digest and the simulated
   counters of its check batch (relink family) or of one batch
   (simulate family). Regenerate with [main.exe --write-golden FILE]. *)

type entry = { digest : string; counters : Obs.Json.t }

let entry_of_json v =
  { digest = Jsonl.to_str (Jsonl.field "digest" v); counters = Jsonl.field "counters" v }

let table =
  lazy
    (List.map
       (fun (family, v) ->
         ( family,
           ( Jsonl.to_int (Jsonl.field "seed" v),
             Array.of_list (List.map entry_of_json (Jsonl.to_list (Jsonl.field "programs" v))) ) ))
       (Jsonl.to_assoc (Jsonl.parse_exn Golden_data.json)))

(* [lookup f ~seed k] is the golden entry of program [k], or [None]
   when [seed] is not the seed the goldens were recorded at. *)
let lookup f ~seed k =
  match List.assoc_opt (Family.family_name f) (Lazy.force table) with
  | Some (s, entries) when s = seed && Array.length entries = Family.cycle f ->
    Some entries.(k mod Family.cycle f)
  | Some _ | None -> None

(* The golden file's text: one program per line, so a regenerated file
   diffs program by program. *)
let to_text families =
  let entry e =
    Jsonl.to_string (Obj [ ("digest", String e.digest); ("counters", e.counters) ])
  in
  let family (f, seed, entries) =
    Printf.sprintf "%S: {\"seed\": %d, \"programs\": [\n%s\n]}" (Family.family_name f) seed
      (String.concat ",\n" (List.map entry entries))
  in
  "{" ^ String.concat ",\n" (List.map family families) ^ "}\n"
