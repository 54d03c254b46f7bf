type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, float list ref) Hashtbl.t;  (* reversed observations *)
}

let create () =
  { counters = Hashtbl.create 64; gauges = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let cell tbl make name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = make () in
    Hashtbl.add tbl name r;
    r

let add_counter t name n =
  if n < 0 then invalid_arg "Metrics.add_counter: counters are monotonic";
  let r = cell t.counters (fun () -> ref 0) name in
  r := !r + n

let incr_counter t name = add_counter t name 1

let counter t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_gauge t name v = cell t.gauges (fun () -> ref 0.0) name := v

let gauge t name = Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

let observe t name v =
  let r = cell t.histograms (fun () -> ref []) name in
  r := v :: !r

type summary = {
  count : int;
  sum : float;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
  p99 : float;
}

(* Summary statistics. Obs sits below Support in the stack
   (Support.Ctx carries an Obs.Recorder.t), so these are the one copy:
   Support.Stats forwards to them. *)
let sum = List.fold_left ( +. ) 0.0

let mean = function [] -> 0.0 | xs -> sum xs /. float_of_int (List.length xs)

(* Linear interpolation between closest ranks (numpy's "linear").
   Small samples stay exact: any percentile of 1 sample is that
   sample, p50 of 2 samples is their midpoint (== median), p100 is
   the max. *)
let percentile p xs =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then invalid_arg "Metrics.percentile: empty sample list";
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = max 0 (min (n - 1) (int_of_float (floor rank))) in
    let hi = min (n - 1) (lo + 1) in
    arr.(lo) +. ((rank -. float_of_int lo) *. (arr.(hi) -. arr.(lo)))
  end

let stddev xs =
  let m = mean xs in
  sqrt (mean (List.map (fun x -> (x -. m) *. (x -. m)) xs))

let median = function
  | [] -> 0.0
  | xs ->
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let summarize = function
  | [] -> None
  | xs ->
    Some
      {
        count = List.length xs;
        sum = sum xs;
        mean = mean xs;
        stddev = stddev xs;
        min = List.fold_left Float.min Float.infinity xs;
        max = List.fold_left Float.max Float.neg_infinity xs;
        median = median xs;
        p90 = percentile 90.0 xs;
        p99 = percentile 99.0 xs;
      }

let summary t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some r -> summarize !r

let sorted_bindings tbl value =
  Hashtbl.fold (fun k r acc -> (k, value r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.counters ( ! )

let gauges t = sorted_bindings t.gauges ( ! )

let summaries t =
  Hashtbl.fold
    (fun k r acc -> match summarize !r with Some s -> (k, s) :: acc | None -> acc)
    t.histograms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms

let summary_json (s : summary) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Float s.sum);
      ("mean", Json.Float s.mean);
      ("stddev", Json.Float s.stddev);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
      ("median", Json.Float s.median);
      ("p90", Json.Float s.p90);
      ("p99", Json.Float s.p99);
    ]

let to_json t =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (gauges t)));
      ("histograms", Json.Obj (List.map (fun (k, s) -> (k, summary_json s)) (summaries t)));
    ]

let report t =
  let buf = Buffer.create 1024 in
  let section name = Printf.bprintf buf "== %s ==\n" name in
  (match counters t with
  | [] -> ()
  | cs ->
    section "counters";
    List.iter (fun (k, v) -> Printf.bprintf buf "%-44s %12d\n" k v) cs);
  (match gauges t with
  | [] -> ()
  | gs ->
    section "gauges";
    List.iter (fun (k, v) -> Printf.bprintf buf "%-44s %12.3f\n" k v) gs);
  (match summaries t with
  | [] -> ()
  | hs ->
    section "histograms";
    List.iter
      (fun (k, s) ->
        Printf.bprintf buf
          "%-44s n=%-6d mean=%-10.3f stddev=%-10.3f p50=%-10.3f p90=%-10.3f p99=%-10.3f max=%.3f\n"
          k s.count s.mean s.stddev s.median s.p90 s.p99 s.max)
      hs);
  Buffer.contents buf
