type arg = Int of int | Float of float | Str of string

type span = {
  id : int;
  name : string;
  start : float;
  duration : float;
  depth : int;
  tid : int;
  args : (string * arg) list;
}

type open_span = { oid : int; oname : string; ostart : float; mutable oargs : (string * arg) list }

type counter_sample = { cname : string; ts : float; values : (string * float) list }

type t = {
  clk : Clock.t;
  mutable stack : open_span list;
  mutable completed : span list;  (* reverse completion order *)
  mutable samples : counter_sample list;  (* reverse order *)
  mutable next_id : int;
}

let create clk = { clk; stack = []; completed = []; samples = []; next_id = 0 }

let with_span ?(args = []) t name f =
  let o = { oid = t.next_id; oname = name; ostart = Clock.now t.clk; oargs = args } in
  t.next_id <- t.next_id + 1;
  let depth = List.length t.stack in
  t.stack <- o :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      (match t.stack with o' :: rest when o' == o -> t.stack <- rest | _ -> ());
      t.completed <-
        {
          id = o.oid;
          name = o.oname;
          start = o.ostart;
          duration = Clock.now t.clk -. o.ostart;
          depth;
          tid = 1;
          args = o.oargs;
        }
        :: t.completed)
    f

let complete ?(tid = 1) ?(args = []) t name ~start ~duration =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  t.completed <-
    { id; name; start; duration; depth = List.length t.stack; tid; args } :: t.completed

let set_args t args =
  match t.stack with
  | [] -> ()
  | o :: _ -> o.oargs <- o.oargs @ args

let counter t name values =
  t.samples <- { cname = name; ts = Clock.now t.clk; values } :: t.samples

let spans t =
  List.stable_sort
    (fun a b -> if a.start = b.start then compare a.id b.id else compare a.start b.start)
    t.completed

let num_events t = List.length t.completed + List.length t.samples

let usec seconds = int_of_float (Float.round (seconds *. 1e6))

let arg_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s

let span_event s =
  let base =
    [
      ("name", Json.String s.name);
      ("cat", Json.String "propeller");
      ("ph", Json.String "X");
      ("ts", Json.Int (usec s.start));
      ("dur", Json.Int (usec s.duration));
      ("pid", Json.Int 1);
      ("tid", Json.Int s.tid);
    ]
  in
  let args = ("depth", Json.Int s.depth) :: List.map (fun (k, v) -> (k, arg_json v)) s.args in
  Json.Obj (base @ [ ("args", Json.Obj args) ])

let counter_event c =
  Json.Obj
    [
      ("name", Json.String c.cname);
      ("cat", Json.String "propeller");
      ("ph", Json.String "C");
      ("ts", Json.Int (usec c.ts));
      ("pid", Json.Int 1);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) c.values));
    ]

let to_chrome_json t =
  let samples =
    List.stable_sort (fun a b -> compare (a.ts, a.cname) (b.ts, b.cname)) t.samples
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map span_event (spans t) @ List.map counter_event samples) );
      ("displayTimeUnit", Json.String "ms");
    ]
