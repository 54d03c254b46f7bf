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

let collector config profile =
  if config.period <= 0 then invalid_arg "Sampler.collector: period must be positive";
  if config.max_frames <= 0 then invalid_arg "Sampler.collector: max_frames must be positive";
  (* Shadow call stack of (call-site source, callee entry) frames,
     newest first, mirrored from the interpreter's Call/Ret events. *)
  let stack = ref [] in
  let clock = ref 0 in
  let sample_idx = ref 0 in
  let deadline = ref (gap config 0) in
  let sample leaf =
    profile.num_samples <- profile.num_samples + 1;
    profile.num_frames <- profile.num_frames + 1;
    bump profile.leaves leaf;
    let rec walk frames n =
      match frames with
      | [] -> ()
      | _ when n >= config.max_frames -> ()
      | frame :: rest ->
        profile.num_frames <- profile.num_frames + 1;
        bump profile.arcs frame;
        walk rest (n + 1)
    in
    walk !stack 1
  in
  {
    Exec.Event.on_fetch =
      (fun addr _len insts ->
        clock := !clock + insts;
        (* A long fetch run can cross several deadlines; attribute every
           one to the run's start PC (the sampler cannot see inside a
           straight-line run, just like a real timer interrupt lands on
           whatever instruction retires next). *)
        while !clock >= !deadline do
          sample addr;
          incr sample_idx;
          deadline := !deadline + gap config !sample_idx
        done);
    on_branch =
      (fun ~src ~dst ~kind ~taken ->
        match kind with
        | Exec.Event.Call when taken -> stack := (src, dst) :: !stack
        | Exec.Event.Ret -> (
          (* The per-request root return has no matching Call frame. *)
          match !stack with [] -> () | _ :: rest -> stack := rest)
        | _ -> ());
    on_dmiss = (fun ~src:_ -> ());
    on_request =
      (fun _ ->
        (* A step-limit abort (Out_of_steps) unwinds nested calls without
           emitting Ret events; requests are independent, so any frames
           still on the shadow stack here are stale. *)
        stack := []);
  }

let distinct_leaves profile = Hashtbl.length profile.leaves

let table_total tbl = Hashtbl.fold (fun _ n acc -> acc + n) tbl 0

let leaf_total profile = table_total profile.leaves

let arc_total profile = table_total profile.arcs

let merge_table dst src =
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt dst k with
      | Some c -> Hashtbl.replace dst k (c + v)
      | None -> Hashtbl.add dst k v)
    src

let merge a b =
  merge_table a.leaves b.leaves;
  merge_table a.arcs b.arcs;
  a.num_samples <- a.num_samples + b.num_samples;
  a.num_frames <- a.num_frames + b.num_frames
