(* Bounded ring buffer of the last K telemetry events, kept cheap
   enough to stay always-on. The dump is the postmortem artifact: what
   the run was doing just before a crash or a fault-path degradation.
   Dump content is replay-deterministic (simulated time, kinds, names,
   details). *)

type kind = Span_begin | Span_end | Span_complete | Counter | Gauge | Observe | Note

let kind_to_string = function
  | Span_begin -> "span_begin"
  | Span_end -> "span_end"
  | Span_complete -> "span_complete"
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Observe -> "observe"
  | Note -> "note"

type event = {
  seq : int;  (* 0-based record index since creation/reset *)
  sim : float;  (* simulated seconds *)
  kind : kind;
  name : string;
  detail : string;
}

type t = { slots : event option array; capacity : int; mutable recorded : int }

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be >= 1";
  { slots = Array.make capacity None; capacity; recorded = 0 }

let record t ~sim kind name detail =
  let ev = { seq = t.recorded; sim; kind; name; detail } in
  t.slots.(t.recorded mod t.capacity) <- Some ev;
  t.recorded <- t.recorded + 1

(* Oldest-first; at most [capacity] events. *)
let events t =
  let n = min t.recorded t.capacity in
  List.init n (fun i ->
      match t.slots.((t.recorded - n + i) mod t.capacity) with
      | Some ev -> ev
      | None -> assert false)

let event_line ev =
  Printf.sprintf "  #%-6d t=%.6fs %-13s %s%s" ev.seq ev.sim (kind_to_string ev.kind) ev.name
    (if ev.detail = "" then "" else " " ^ ev.detail)

let dump t =
  let evs = events t in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "flight recorder: last %d of %d events (oldest first)\n" (List.length evs)
       t.recorded);
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_line ev);
      Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf
