let sum = Obs.Metrics.sum

let mean = Obs.Metrics.mean

let percentile = Obs.Metrics.percentile

let stddev = Obs.Metrics.stddev

let median = Obs.Metrics.median

let geomean = function
  | [] -> 0.0
  | xs ->
    let logs = List.map (fun x -> if x <= 0.0 then neg_infinity else log x) xs in
    exp (mean logs)

let ratio_pct a b = if b = 0.0 then 0.0 else (a -. b) /. b *. 100.0

let pearson pairs =
  match pairs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let n = float_of_int (List.length pairs) in
    let xs = List.map fst pairs and ys = List.map snd pairs in
    let mx = mean xs and my = mean ys in
    let cov = ref 0.0 and vx = ref 0.0 and vy = ref 0.0 in
    List.iter
      (fun (x, y) ->
        let dx = x -. mx and dy = y -. my in
        cov := !cov +. (dx *. dy);
        vx := !vx +. (dx *. dx);
        vy := !vy +. (dy *. dy))
      pairs;
    let denom = sqrt (!vx /. n) *. sqrt (!vy /. n) in
    if denom = 0.0 then 0.0 else !cov /. n /. denom
