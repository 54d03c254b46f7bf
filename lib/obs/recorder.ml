type t = {
  clk : Clock.t;
  metrics : Metrics.t;
  trace : Trace.t;
  selfprof : Selfprof.t;
  flight : Flight.t;
}

let create ?flight_capacity () =
  let clk = Clock.create () in
  {
    clk;
    metrics = Metrics.create ();
    trace = Trace.create clk;
    selfprof = Selfprof.create ();
    flight = Flight.create ?capacity:flight_capacity ();
  }

let trace t = t.trace

let selfprof t = t.selfprof

let enable_self_profile t = Selfprof.enable t.selfprof

let with_span ?args t name f =
  Flight.record t.flight ~sim:(Clock.now t.clk) Flight.Span_begin name "";
  let frame = Selfprof.enter t.selfprof name in
  Fun.protect
    ~finally:(fun () ->
      Selfprof.leave t.selfprof frame;
      Flight.record t.flight ~sim:(Clock.now t.clk) Flight.Span_end name "")
    (fun () -> Trace.with_span ?args t.trace name f)

let emit_span ?tid ?args t name ~start ~duration =
  Flight.record t.flight ~sim:(Clock.now t.clk) Flight.Span_complete name
    (Printf.sprintf "start=%.6f dur=%.6f%s" start duration
       (match tid with None -> "" | Some tid -> Printf.sprintf " tid=%d" tid));
  Trace.complete ?tid ?args t.trace name ~start ~duration

let now t = Clock.now t.clk

let span_args t args = Trace.set_args t.trace args

let advance t dt = Clock.advance t.clk dt

let incr_counter t name =
  Flight.record t.flight ~sim:(Clock.now t.clk) Flight.Counter name "+1";
  Metrics.incr_counter t.metrics name

let add_counter t name n =
  Flight.record t.flight ~sim:(Clock.now t.clk) Flight.Counter name (Printf.sprintf "+%d" n);
  Metrics.add_counter t.metrics name n

let set_gauge t name v =
  Flight.record t.flight ~sim:(Clock.now t.clk) Flight.Gauge name (Printf.sprintf "=%g" v);
  Metrics.set_gauge t.metrics name v

let observe t name v =
  Flight.record t.flight ~sim:(Clock.now t.clk) Flight.Observe name (Printf.sprintf "%g" v);
  Metrics.observe t.metrics name v

let flight_note t name detail =
  Flight.record t.flight ~sim:(Clock.now t.clk) Flight.Note name detail

let counter_sample t name values = Trace.counter t.trace name values

let trace_json t = Json.to_string (Trace.to_chrome_json t.trace)

let metrics_json t = Json.to_string (Metrics.to_json t.metrics)

let metrics_report t = Metrics.report t.metrics

let flight_dump t = Flight.dump t.flight
