type t = {
  seed : int;
  action_fail : float;
  persist : float;
  straggle : float;
  straggle_factor : float;
  corrupt : float;
  shard_drop : float;
  shards : int;
  max_attempts : int;
  backoff_base : float;
  backoff_mult : float;
}

let default =
  {
    seed = 0;
    action_fail = 0.0;
    persist = 0.0;
    straggle = 0.0;
    straggle_factor = 8.0;
    corrupt = 0.0;
    shard_drop = 0.0;
    shards = 16;
    max_attempts = 4;
    backoff_base = 0.5;
    backoff_mult = 2.0;
  }

let is_active t =
  t.action_fail > 0.0 || t.persist > 0.0 || t.straggle > 0.0 || t.corrupt > 0.0
  || t.shard_drop > 0.0

(* FNV-1a + a splitmix64 finalizer: a dependency-free stateless hash.
   Every decision below draws one uniform float from it, keyed by
   (seed, decision kind, identity) — no generator state, so decisions
   are order- and parallelism-independent by construction. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let raw t ~salt ~key ~n =
  mix (fnv1a (Printf.sprintf "%d|%d|%d|%s" t.seed salt n key))

let unit_float t ~salt ~key ~n =
  Int64.to_float (Int64.shift_right_logical (raw t ~salt ~key ~n) 11)
  *. (1.0 /. 9007199254740992.0)

let attempt_fails t ~key ~attempt =
  unit_float t ~salt:1 ~key ~n:attempt < t.action_fail

let attempts_for t ~key =
  let rec go a =
    if a >= t.max_attempts then t.max_attempts
    else if attempt_fails t ~key ~attempt:a then go (a + 1)
    else a
  in
  go 1

let persistent t ~unit_name = unit_float t ~salt:2 ~key:unit_name ~n:0 < t.persist

let straggles t ~key = unit_float t ~salt:3 ~key ~n:0 < t.straggle

let corrupts t ~key = unit_float t ~salt:4 ~key ~n:0 < t.corrupt

let shard_of t ~key =
  if t.shards <= 1 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (raw t ~salt:5 ~key ~n:0) 1)
                       (Int64.of_int t.shards))

let shard_dropped t ~shard =
  unit_float t ~salt:6 ~key:(string_of_int shard) ~n:0 < t.shard_drop

let dropped_shards t =
  List.filter (fun s -> shard_dropped t ~shard:s) (List.init t.shards Fun.id)

let backoff_seconds t ~retry =
  if retry < 1 then invalid_arg "Plan.backoff_seconds: retry must be >= 1";
  t.backoff_base *. (t.backoff_mult ** float_of_int (retry - 1))

let retry_cost t ~attempts ~cpu_seconds =
  let rec go r acc =
    if r > attempts - 1 then acc
    else go (r + 1) (acc +. cpu_seconds +. backoff_seconds t ~retry:r)
  in
  go 1 0.0

(* --- spec strings ------------------------------------------------- *)

(* The shortest of 15 or 17 significant digits that reads back as [f]:
   short values print as %g would, and every value round-trips. *)
let float_spec f =
  let s = Printf.sprintf "%.15g" f in
  if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let to_spec t =
  Printf.sprintf
    "seed=%d,action=%s,persist=%s,straggle=%s,straggle-factor=%s,corrupt=%s,shard-drop=%s,shards=%d,attempts=%d,backoff=%s,backoff-mult=%s"
    t.seed (float_spec t.action_fail) (float_spec t.persist) (float_spec t.straggle)
    (float_spec t.straggle_factor) (float_spec t.corrupt) (float_spec t.shard_drop) t.shards
    t.max_attempts (float_spec t.backoff_base) (float_spec t.backoff_mult)

let of_spec s =
  let parse_int key v =
    match int_of_string_opt (String.trim v) with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "%s: integer expected, got %S" key v)
  in
  let parse_float key v =
    match float_of_string_opt (String.trim v) with
    | Some f when Float.is_finite f -> Ok f
    | Some _ | None -> Error (Printf.sprintf "%s: finite number expected, got %S" key v)
  in
  let parse_rate key v =
    match parse_float key v with
    | Ok f when f >= 0.0 && f <= 1.0 -> Ok f
    | Ok f -> Error (Printf.sprintf "%s: rate must be in [0, 1], got %g" key f)
    | Error _ as e -> e
  in
  let ( let* ) = Result.bind in
  let apply t kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" kv)
    | Some i ->
      let key = String.trim (String.sub kv 0 i) in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      (match key with
      | "seed" ->
        let* n = parse_int key v in
        Ok { t with seed = n }
      | "action" ->
        let* r = parse_rate key v in
        Ok { t with action_fail = r }
      | "persist" ->
        let* r = parse_rate key v in
        Ok { t with persist = r }
      | "straggle" ->
        let* r = parse_rate key v in
        Ok { t with straggle = r }
      | "straggle-factor" ->
        let* f = parse_float key v in
        if f < 1.0 then Error "straggle-factor: must be >= 1"
        else Ok { t with straggle_factor = f }
      | "corrupt" ->
        let* r = parse_rate key v in
        Ok { t with corrupt = r }
      | "shard-drop" ->
        let* r = parse_rate key v in
        Ok { t with shard_drop = r }
      | "shards" ->
        let* n = parse_int key v in
        if n < 1 then Error "shards: must be >= 1" else Ok { t with shards = n }
      | "attempts" ->
        let* n = parse_int key v in
        if n < 1 then Error "attempts: must be >= 1" else Ok { t with max_attempts = n }
      | "backoff" ->
        let* f = parse_float key v in
        if f < 0.0 then Error "backoff: must be >= 0" else Ok { t with backoff_base = f }
      | "backoff-mult" ->
        let* f = parse_float key v in
        if f < 1.0 then Error "backoff-mult: must be >= 1"
        else Ok { t with backoff_mult = f }
      | _ ->
        Error
          (Printf.sprintf
             "unknown fault key %S (known: seed action persist straggle straggle-factor \
              corrupt shard-drop shards attempts backoff backoff-mult)"
             key))
  in
  String.split_on_char ',' s
  |> List.filter (fun kv -> String.trim kv <> "")
  |> List.fold_left (fun acc kv -> Result.bind acc (fun t -> apply t kv)) (Ok default)
