(* Order statistics of the benchmark's reports. Medians and
   interpolated percentiles are the repo's own (Support.Stats); the
   quartiles follow Python's statistics.quantiles, the definition the
   spread of repeated runs is judged by. *)

let median = Support.Stats.median

let percentile = Support.Stats.percentile

(* [quartiles xs] is (Q1, Q2, Q3) by the "exclusive" method of
   statistics.quantiles(xs, n=4). Raises Invalid_argument below two
   samples, as Python does. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let cut i =
    let m = i * (n + 1) in
    let j = max 1 (min (n - 1) (m / 4)) in
    let delta = m - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (cut 1, cut 2, cut 3)

(* Tail levels a timing may be reported at, highest first, in permille
   so the "samples beyond" test is exact integer arithmetic. *)
let tail_levels_permille = [ 999; 990; 950; 900; 750; 500 ]

(* [tail_level n] is the highest standard percentile (as a float, e.g.
   99.0) that has at least ten of [n] samples beyond it, or [None] when
   even the median has fewer. *)
let tail_level n =
  List.find_opt (fun l -> n * (1000 - l) >= 10 * 1000) tail_levels_permille
  |> Option.map (fun l -> float_of_int l /. 10.0)
