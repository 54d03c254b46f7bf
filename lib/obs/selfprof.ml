(* Span-attributed self-profile: host seconds and GC words per span
   *path* ("round:1;phase:wpa"), with self (exclusive) attribution so a
   parent is not charged for its children. Disabled profilers cost one
   branch per span. Structure (the set of paths, counts) is a function
   of the deterministic span tree; host-time and word values are not. *)

type agg = {
  mutable count : int;
  mutable host_s : float;
  mutable self_host_s : float;
  mutable alloc_words : float;
  mutable self_alloc_words : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable promoted_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
}

let fresh_agg () =
  {
    count = 0;
    host_s = 0.0;
    self_host_s = 0.0;
    alloc_words = 0.0;
    self_alloc_words = 0.0;
    minor_words = 0.0;
    major_words = 0.0;
    promoted_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
  }

type frame = {
  fname : string;
  fpath : string;
  t0 : float;
  gc0 : Hostclock.gc_snapshot;
  mutable child_host_s : float;
  mutable child_alloc_words : float;
}

type t = {
  mutable enabled : bool;
  mutable stack : frame list;
  paths : (string, agg) Hashtbl.t;
}

let create () = { enabled = false; stack = []; paths = Hashtbl.create 64 }

let enable t = t.enabled <- true

let enabled t = t.enabled

let reset t =
  t.stack <- [];
  Hashtbl.reset t.paths

let enter t name =
  if not t.enabled then None
  else begin
    let fpath =
      match t.stack with [] -> name | parent :: _ -> parent.fpath ^ ";" ^ name
    in
    let fr =
      {
        fname = name;
        fpath;
        t0 = Hostclock.now ();
        gc0 = Hostclock.gc_snapshot ();
        child_host_s = 0.0;
        child_alloc_words = 0.0;
      }
    in
    t.stack <- fr :: t.stack;
    Some fr
  end

let agg_of t path =
  match Hashtbl.find_opt t.paths path with
  | Some a -> a
  | None ->
    let a = fresh_agg () in
    Hashtbl.add t.paths path a;
    a

let leave t frame =
  match frame with
  | None -> ()
  | Some fr ->
    (match t.stack with
    | top :: rest when top == fr -> t.stack <- rest
    | _ -> () (* enable() raced a span open; drop the orphan quietly *));
    let dt = Float.max 0.0 (Hostclock.now () -. fr.t0) in
    let d = Hostclock.gc_delta ~before:fr.gc0 ~after:(Hostclock.gc_snapshot ()) in
    let words = Hostclock.allocated_words d in
    let a = agg_of t fr.fpath in
    a.count <- a.count + 1;
    a.host_s <- a.host_s +. dt;
    a.self_host_s <- a.self_host_s +. Float.max 0.0 (dt -. fr.child_host_s);
    a.alloc_words <- a.alloc_words +. words;
    a.self_alloc_words <- a.self_alloc_words +. Float.max 0.0 (words -. fr.child_alloc_words);
    a.minor_words <- a.minor_words +. d.minor_words;
    a.major_words <- a.major_words +. d.major_words;
    a.promoted_words <- a.promoted_words +. d.promoted_words;
    a.minor_collections <- a.minor_collections + d.minor_collections;
    a.major_collections <- a.major_collections + d.major_collections;
    (match t.stack with
    | parent :: _ ->
      parent.child_host_s <- parent.child_host_s +. dt;
      parent.child_alloc_words <- parent.child_alloc_words +. words
    | [] -> ())

let with_span t name f =
  let fr = enter t name in
  Fun.protect ~finally:(fun () -> leave t fr) f

(* --- Views -------------------------------------------------------- *)

type row = {
  path : string;
  name : string;  (* leaf component of [path] *)
  count : int;
  host_s : float;
  self_host_s : float;
  alloc_words : float;
  self_alloc_words : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let leaf path =
  match String.rindex_opt path ';' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let row_of path (a : agg) =
  {
    path;
    name = leaf path;
    count = a.count;
    host_s = a.host_s;
    self_host_s = a.self_host_s;
    alloc_words = a.alloc_words;
    self_alloc_words = a.self_alloc_words;
    minor_words = a.minor_words;
    major_words = a.major_words;
    promoted_words = a.promoted_words;
    minor_collections = a.minor_collections;
    major_collections = a.major_collections;
  }

let rows t =
  Hashtbl.fold (fun path a acc -> row_of path a :: acc) t.paths []
  |> List.sort (fun a b -> String.compare a.path b.path)

let num_paths t = Hashtbl.length t.paths

(* Hotspots: rows merged by leaf span name (the "phase" label), ranked
   by self host seconds, allocation words as the tiebreak. *)
type hotspot = {
  hname : string;
  hcount : int;
  hself_host_s : float;
  hhost_s : float;
  hself_alloc_words : float;
  hminor_collections : int;
  hmajor_collections : int;
}

let hotspots_of_rows ?limit rows =
  let tbl : (string, hotspot ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let h =
        match Hashtbl.find_opt tbl r.name with
        | Some h -> h
        | None ->
          let h =
            ref
              {
                hname = r.name;
                hcount = 0;
                hself_host_s = 0.0;
                hhost_s = 0.0;
                hself_alloc_words = 0.0;
                hminor_collections = 0;
                hmajor_collections = 0;
              }
          in
          Hashtbl.add tbl r.name h;
          h
      in
      h :=
        {
          !h with
          hcount = !h.hcount + r.count;
          hself_host_s = !h.hself_host_s +. r.self_host_s;
          hhost_s = !h.hhost_s +. r.host_s;
          hself_alloc_words = !h.hself_alloc_words +. r.self_alloc_words;
          hminor_collections = !h.hminor_collections + r.minor_collections;
          hmajor_collections = !h.hmajor_collections + r.major_collections;
        })
    rows;
  let all =
    Hashtbl.fold (fun _ h acc -> !h :: acc) tbl []
    |> List.sort (fun a b ->
           match Float.compare b.hself_host_s a.hself_host_s with
           | 0 -> (
             match Float.compare b.hself_alloc_words a.hself_alloc_words with
             | 0 -> String.compare a.hname b.hname
             | c -> c)
           | c -> c)
  in
  match limit with
  | None -> all
  | Some n -> List.filteri (fun i _ -> i < n) all

let hotspots ?limit t = hotspots_of_rows ?limit (rows t)

(* --- Folded output ------------------------------------------------ *)

(* flamegraph.pl-compatible: one "path weight" line per span path,
   sorted by path. Weights are integral; `Host gives self microseconds,
   `Alloc self words. Line *structure* is deterministic; `Host weights
   are not (strip trailing integers to compare runs). *)
let folded ?(weight = `Host) t =
  Folded.to_string
    (List.map
       (fun r ->
         let w =
           match weight with
           | `Host -> Folded.micros r.self_host_s
           | `Alloc -> int_of_float (Float.round r.self_alloc_words)
         in
         (r.path, w))
       (rows t))

(* --- JSON --------------------------------------------------------- *)

let row_json r =
  Json.Obj
    [
      ("path", Json.String r.path);
      ("name", Json.String r.name);
      ("count", Json.Int r.count);
      ("host_s", Json.Float r.host_s);
      ("self_host_s", Json.Float r.self_host_s);
      ("alloc_words", Json.Float r.alloc_words);
      ("self_alloc_words", Json.Float r.self_alloc_words);
      ("minor_words", Json.Float r.minor_words);
      ("major_words", Json.Float r.major_words);
      ("promoted_words", Json.Float r.promoted_words);
      ("minor_collections", Json.Int r.minor_collections);
      ("major_collections", Json.Int r.major_collections);
    ]

let to_json t =
  Json.Obj
    [
      ("tool", Json.String "propeller-selfprof");
      ("enabled", Json.Bool t.enabled);
      ("num_paths", Json.Int (num_paths t));
      ("spans", Json.List (List.map row_json (rows t)));
    ]

(* Re-read an exported self-profile (propeller stat top --from FILE). *)
let rows_of_json json =
  match Json.member "spans" json with
  | Some (Json.List spans) -> (
    let field name j = Json.member name j in
    let str name j = match field name j with Some (Json.String s) -> Some s | _ -> None in
    let num name j =
      match field name j with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    let int name j = match field name j with Some (Json.Int i) -> Some i | _ -> None in
    let parse_row j =
      match (str "path" j, int "count" j) with
      | Some path, Some count ->
        let f name = Option.value (num name j) ~default:0.0 in
        let i name = Option.value (int name j) ~default:0 in
        Ok
          {
            path;
            name = leaf path;
            count;
            host_s = f "host_s";
            self_host_s = f "self_host_s";
            alloc_words = f "alloc_words";
            self_alloc_words = f "self_alloc_words";
            minor_words = f "minor_words";
            major_words = f "major_words";
            promoted_words = f "promoted_words";
            minor_collections = i "minor_collections";
            major_collections = i "major_collections";
          }
      | _ -> Error "selfprof span entry missing \"path\" or \"count\""
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest -> ( match parse_row j with Ok r -> go (r :: acc) rest | Error e -> Error e)
    in
    go [] spans)
  | _ -> Error "not a self-profile: missing \"spans\" array"

(* --- Rendering ---------------------------------------------------- *)

let pp_words w =
  if w >= 1.0e9 then Printf.sprintf "%.2fGw" (w /. 1.0e9)
  else if w >= 1.0e6 then Printf.sprintf "%.1fMw" (w /. 1.0e6)
  else if w >= 1.0e3 then Printf.sprintf "%.0fKw" (w /. 1.0e3)
  else Printf.sprintf "%.0fw" w

let render_hotspots ?(limit = 15) hotspots =
  let buf = Buffer.create 1024 in
  let total_self = List.fold_left (fun acc h -> acc +. h.hself_host_s) 0.0 hotspots in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %6s %10s %6s %12s %8s\n" "phase" "count" "self-host" "%" "self-alloc"
       "gc(mn/mj)");
  List.iteri
    (fun i h ->
      if i < limit then
        Buffer.add_string buf
          (Printf.sprintf "%-28s %6d %9.3fs %5.1f%% %12s %5d/%d\n" h.hname h.hcount
             h.hself_host_s
             (if total_self > 0.0 then h.hself_host_s /. total_self *. 100.0 else 0.0)
             (pp_words h.hself_alloc_words)
             h.hminor_collections h.hmajor_collections))
    hotspots;
  if hotspots = [] then Buffer.add_string buf "(no spans self-profiled)\n";
  Buffer.contents buf
