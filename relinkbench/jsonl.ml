(* One JSON value per line. Obs.Json prints floats to six significant
   digits; a measured value is printed here with every digit it needs
   to read back exactly (the shortest of %.15g / %.16g / %.17g that
   round-trips), so golden counters compare exactly and no two timings
   collapse to the same text. *)

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s =
      List.find
        (fun s -> float_of_string s = f)
        [ Printf.sprintf "%.15g" f; Printf.sprintf "%.16g" f; Printf.sprintf "%.17g" f ]
    in
    (* Keep a float a float when it re-parses (Obs.Json reads "3" as Int). *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
    else s ^ ".0"

let rec to_string (v : Obs.Json.t) =
  match v with
  | Float f -> float_repr f
  | List vs -> "[" ^ String.concat "," (List.map to_string vs) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Obs.Json.to_string (String k) ^ ":" ^ to_string v) kvs)
    ^ "}"
  | Null | Bool _ | Int _ | String _ -> Obs.Json.to_string v

let parse_exn s =
  match Obs.Json.parse s with Ok v -> v | Error e -> failwith e

(* Field accessors over parsed lines; a missing or mistyped field is a
   malformed line. *)
let field name v =
  match Obs.Json.member name v with
  | Some x -> x
  | None -> failwith (Printf.sprintf "missing field %S" name)

let to_float = function
  | Obs.Json.Float f -> f
  | Obs.Json.Int i -> float_of_int i
  | _ -> failwith "number expected"

let to_int = function Obs.Json.Int i -> i | _ -> failwith "integer expected"

let to_str = function Obs.Json.String s -> s | _ -> failwith "string expected"

let to_list = function Obs.Json.List l -> l | _ -> failwith "list expected"

let to_assoc = function Obs.Json.Obj kvs -> kvs | _ -> failwith "object expected"

let floats v = List.map to_float (to_list v)

type metric = { name : string; value : float; unit_ : string; better : string; n : int }

(* One metric line: every metric a run prints is a JSON object on its
   own line, so a reader re-parses each with Obs.Json.parse. *)
let metric_line ~workload m =
  to_string
    (Obj
       [
         ("workload", String workload);
         ("metric", String m.name);
         ("value", Float m.value);
         ("unit", String m.unit_);
         ("better", String m.better);
         ("n", Int m.n);
       ])

(* The summary that ends a run's standard output. *)
let summary_line ~correct ~attempted ~failed metrics =
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun m ->
                  (m.name, Obs.Json.Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
                metrics) );
       ])
