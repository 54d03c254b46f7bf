(* The benchmark's tracer: spans recorded from bench code around each
   call into a layer (a lib/ module), kept in memory and written out
   when the run ends. A layer's self time is its span's duration minus
   the part its child spans cover. Off by default: with tracing off
   [span] is a plain call. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span. *)
  op : int;  (** Op index within the process; -1 during set-up, -2 for checks outside ops. *)
  layer : string;  (** A lib/ layer, or "bench" for the benchmark's own glue. *)
  name : string;
  start : float;  (** Seconds since the process started tracing. *)
  dur : float;
  words : float;  (** Words the calling domain allocated inside the span. *)
  calls : int;  (** Calls the span stands for (>1 for an aggregate of drains). *)
}

let enabled = ref false

let epoch = ref 0.0

let recorded : span list ref = ref []

let stack : int list ref = ref []

let next_id = ref 1

let current_op = ref (-1)

let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let start () =
  enabled := true;
  epoch := Obs.Hostclock.now ()

let words () = Obs.Hostclock.allocated_words (Obs.Hostclock.gc_snapshot ())

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let parent () = match !stack with p :: _ -> p | [] -> 0

let record ~id ~parent ~layer ~name ~start ~dur ~words ~calls =
  recorded :=
    { id; parent; op = !current_op; layer; name; start = start -. !epoch; dur; words; calls }
    :: !recorded

(* [span ~layer ~name f] runs [f] inside a span. *)
let span ~layer ~name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () and parent = parent () in
    stack := id :: !stack;
    let w0 = words () in
    let t0 = Obs.Hostclock.now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Obs.Hostclock.now () in
        stack := List.tl !stack;
        record ~id ~parent ~layer ~name ~start:t0 ~dur:(t1 -. t0) ~words:(words () -. w0) ~calls:1)
  end

(* [drained ~layer ~name consume f] runs [f] with [consume] timed on
   every call. The engine drains its event tape hundreds of times per
   run, so the calls are recorded as one aggregate child span of the
   innermost open span (start of the first call, summed duration). *)
let drained ~layer ~name consume f =
  if not !enabled then f consume
  else begin
    let total = ref 0.0 and calls = ref 0 and first = ref 0.0 in
    let timed tape =
      let t0 = Obs.Hostclock.now () in
      consume tape;
      if !calls = 0 then first := t0;
      incr calls;
      total := !total +. (Obs.Hostclock.now () -. t0)
    in
    let v = f timed in
    if !calls > 0 then
      record ~id:(fresh_id ()) ~parent:(parent ()) ~layer ~name ~start:!first ~dur:!total ~words:0.0
        ~calls:!calls;
    v
  end

(* [count name v] adds [v] to a per-layer count of this process. *)
let count name v =
  if !enabled then
    Hashtbl.replace counts name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

(* Self time of every span: its duration minus its children's. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace child s.parent
        (s.dur +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map (fun s -> (s, s.dur -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id))) spans

let to_json s =
  Obs.Json.List
    [
      Int s.id; Int s.parent; Int s.op; String s.layer; String s.name; Float s.start; Float s.dur;
      Float s.words; Int s.calls;
    ]

let of_json v =
  match v with
  | Obs.Json.List [ id; parent; op; layer; name; start; dur; words; calls ] ->
    {
      id = Jsonl.to_int id;
      parent = Jsonl.to_int parent;
      op = Jsonl.to_int op;
      layer = Jsonl.to_str layer;
      name = Jsonl.to_str name;
      start = Jsonl.to_float start;
      dur = Jsonl.to_float dur;
      words = Jsonl.to_float words;
      calls = Jsonl.to_int calls;
    }
  | _ -> failwith "malformed span"
