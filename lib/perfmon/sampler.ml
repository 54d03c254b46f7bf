type config = { period : int; jitter_pct : int; seed : int; max_frames : int }

let default_config = { period = 13; jitter_pct = 25; seed = 0; max_frames = 16 }

type profile = {
  leaves : (int, int) Hashtbl.t;
  arcs : (int * int, int) Hashtbl.t;
  mutable num_samples : int;
  mutable num_frames : int;
}

let create_profile () =
  { leaves = Hashtbl.create 4096; arcs = Hashtbl.create 1024; num_samples = 0; num_frames = 0 }

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> Hashtbl.replace tbl key (c + 1)
  | None -> Hashtbl.add tbl key 1

(* Stream salt: keeps the jitter hashes disjoint from every other
   stateless-hash consumer keyed on small integers. *)
let jitter_salt = 0x53414d50 (* "SAMP" *)

(* Gap before sample [k], drawn uniformly from
   [period - j, period + j] where j = period * jitter_pct / 100.
   Pure in (seed, k): the sample schedule is a function of the config
   alone, never of callback arrival order. *)
let gap config k =
  let j = config.period * config.jitter_pct / 100 in
  let lo = config.period - j in
  let u = Support.Rng.hash_float (config.seed lxor jitter_salt) k in
  max 1 (lo + int_of_float (u *. float_of_int ((2 * j) + 1)))

type collector = {
  config : config;
  profile : profile;
  mutable stack : (int * int) list;
      (** Shadow call stack of (call-site source, callee entry) frames,
          newest first, mirrored from the interpreter's Call/Ret events. *)
  mutable clock : int;  (** Instructions fetched so far. *)
  mutable sample_idx : int;
  mutable deadline : int;  (** Clock value of the next sample. *)
}

let collector_state config profile =
  if config.period <= 0 then invalid_arg "Sampler.collector_state: period must be positive";
  if config.max_frames <= 0 then
    invalid_arg "Sampler.collector_state: max_frames must be positive";
  { config; profile; stack = []; clock = 0; sample_idx = 0; deadline = gap config 0 }

let sample c leaf =
  let profile = c.profile in
  profile.num_samples <- profile.num_samples + 1;
  profile.num_frames <- profile.num_frames + 1;
  bump profile.leaves leaf;
  let rec walk frames n =
    match frames with
    | [] -> ()
    | _ when n >= c.config.max_frames -> ()
    | frame :: rest ->
      profile.num_frames <- profile.num_frames + 1;
      bump profile.arcs frame;
      walk rest (n + 1)
  in
  walk c.stack 1

let call_taken = Exec.Event.encode_branch_meta ~kind:Exec.Event.Call ~taken:true

let ret_kind = Exec.Event.kind_to_int Exec.Event.Ret

(* Tape drain: fetches advance the clock, Call/Ret branches move the
   shadow stack, and requests reset it. *)
let consume c (tape : Exec.Event.tape) =
  let tags = tape.Exec.Event.tags
  and a = tape.Exec.Event.a
  and b = tape.Exec.Event.b
  and m = tape.Exec.Event.c in
  for i = 0 to tape.Exec.Event.len - 1 do
    let tag = Bytes.unsafe_get tags i in
    if tag = Exec.Event.tag_fetch then begin
      c.clock <- c.clock + Array.unsafe_get m i;
      (* A long fetch run can cross several deadlines; attribute every
         one to the run's start PC (the sampler cannot see inside a
         straight-line run, just like a real timer interrupt lands on
         whatever instruction retires next). *)
      while c.clock >= c.deadline do
        sample c (Array.unsafe_get a i);
        c.sample_idx <- c.sample_idx + 1;
        c.deadline <- c.deadline + gap c.config c.sample_idx
      done
    end
    else if tag = Exec.Event.tag_branch then begin
      let meta = Array.unsafe_get m i in
      if meta = call_taken then c.stack <- (Array.unsafe_get a i, Array.unsafe_get b i) :: c.stack
      else if meta lsr 1 = ret_kind then (
        (* The per-request root return has no matching Call frame. *)
        match c.stack with [] -> () | _ :: rest -> c.stack <- rest)
    end
    else if tag = Exec.Event.tag_request then
      (* A step-limit abort (Out_of_steps) unwinds nested calls without
         emitting Ret events; requests are independent, so any frames
         still on the shadow stack here are stale. *)
      c.stack <- []
  done

let distinct_leaves profile = Hashtbl.length profile.leaves
