type t = {
  lo : int;
  hi : int;
  grid : int array array;  (** [rows][cols] *)
  rows : int;
  cols : int;
  requests_per_col : int;
  mutable col : int;
}

let create ~lo ~hi ~rows ~cols ~total_requests =
  if rows < 1 || cols < 1 then
    invalid_arg (Printf.sprintf "Heatmap.create: rows=%d cols=%d" rows cols);
  {
    lo;
    hi = max (lo + 1) hi;
    grid = Array.make_matrix rows cols 0;
    rows;
    cols;
    requests_per_col = max 1 (total_requests / cols);
    col = 0;
  }

let sink t =
  {
    Exec.Event.on_fetch =
      (fun addr len _insts ->
        if addr >= t.lo && addr < t.hi then begin
          let row = (addr - t.lo) * t.rows / (t.hi - t.lo) in
          let row = min (t.rows - 1) row in
          let col = min (t.cols - 1) t.col in
          t.grid.(row).(col) <- t.grid.(row).(col) + len
        end);
    on_branch = (fun ~src:_ ~dst:_ ~kind:_ ~taken:_ -> ());
    on_dmiss = (fun ~src:_ -> ());
    (* Request [r] completed, so the fetches that follow are request
       [r + 1]'s. *)
    on_request = (fun r -> t.col <- (r + 1) / t.requests_per_col);
  }

let cell t ~row ~col = t.grid.(row).(col)

let shades = [| ' '; '.'; ':'; '*'; '#'; '@' |]

let render t =
  let maxv = Array.fold_left (fun m row -> Array.fold_left max m row) 1 t.grid in
  let buf = Buffer.create (t.rows * (t.cols + 1)) in
  for r = t.rows - 1 downto 0 do
    for c = 0 to t.cols - 1 do
      let v = t.grid.(r).(c) in
      let shade =
        if v = 0 then 0
        else begin
          (* Log scale: heat maps span orders of magnitude. *)
          let f = log (1.0 +. float_of_int v) /. log (1.0 +. float_of_int maxv) in
          1 + int_of_float (f *. float_of_int (Array.length shades - 2))
        end
      in
      Buffer.add_char buf shades.(min shade (Array.length shades - 1))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let occupied_rows t =
  let n = ref 0 in
  for r = 0 to t.rows - 1 do
    if Array.exists (fun v -> v > 0) t.grid.(r) then incr n
  done;
  !n
