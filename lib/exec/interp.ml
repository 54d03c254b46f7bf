type config = { requests : int; max_steps_per_request : int; call_depth_limit : int }

let default_config = { requests = 100; max_steps_per_request = 5_000; call_depth_limit = 48 }

type stats = {
  blocks_executed : int;
  bytes_fetched : int;
  cond_branches : int;
  cond_taken : int;
  uncond_jumps : int;
  indirect_jumps : int;
  calls : int;
  returns : int;
  dloads : int;  (** Delinquent loads retired. *)
  dmisses : int;  (** ... that missed (no prefetch cover). *)
  dcovered : int;  (** ... whose miss a prefetch hid. *)
  requests_completed : int;
}

exception Out_of_steps

(* Branch-event [c] operands, precomputed (see Event.encode_branch_meta). *)
let meta_cond_taken = Event.encode_branch_meta ~kind:Event.Cond ~taken:true

let meta_cond_not_taken = Event.encode_branch_meta ~kind:Event.Cond ~taken:false

let meta_uncond = Event.encode_branch_meta ~kind:Event.Uncond ~taken:true

let meta_indirect = Event.encode_branch_meta ~kind:Event.Indirect ~taken:true

let meta_call = Event.encode_branch_meta ~kind:Event.Call ~taken:true

let meta_ret = Event.encode_branch_meta ~kind:Event.Ret ~taken:true

type state = {
  image : Image.t;
  tape : Event.tape;
  record : bool;
      (** [false] only when the caller's drain is {!Event.null}: events
          would be dropped anyway, so the writes are skipped. Purely an
          engine-side shortcut — stats never depend on the tape. *)
  drain : Event.tape -> unit;
  depth_limit : int;
  visits : int array;  (** per block uid *)
  mutable call_seq : int;
  mutable steps : int;
  mutable budget : int;
  mutable s_blocks : int;
  mutable s_bytes : int;
  mutable s_cond : int;
  mutable s_cond_taken : int;
  mutable s_uncond : int;
  mutable s_indirect : int;
  mutable s_calls : int;
  mutable s_returns : int;
  mutable s_dloads : int;
  mutable s_dmisses : int;
  mutable s_dcovered : int;
  mutable dload_seq : int;
}

let flush st =
  if st.tape.len > 0 then begin
    st.drain st.tape;
    st.tape.len <- 0
  end

let[@inline] emit st tag a b c =
  if st.record then begin
    let t = st.tape in
    if t.len = Event.tape_capacity then flush st;
    let i = t.len in
    Bytes.unsafe_set t.tags i tag;
    Array.unsafe_set t.a i a;
    Array.unsafe_set t.b i b;
    Array.unsafe_set t.c i c;
    t.len <- i + 1
  end

let[@inline] emit_fetch st addr len insts = emit st Event.tag_fetch addr len insts

let[@inline] emit_branch st src dst meta = emit st Event.tag_branch src dst meta

let[@inline] emit_dmiss st src = emit st Event.tag_dmiss src 0 0

let[@inline] emit_request st i = emit st Event.tag_request i 0 0

(* Execute function [fi] from its entry block; returns the address just
   past the retiring [ret] instruction (the Ret branch source).
   Top-level recursion with explicit arguments: the hot loop allocates
   no closures, and transitions follow the image's patched [succ]
   references — no block-table indexing on the hot path at all. *)
let rec exec_func st fi depth =
  exec_block st depth (Image.block st.image ~func_idx:fi ~block:0)

and exec_block st depth xb =
  st.s_blocks <- st.s_blocks + 1;
  st.steps <- st.steps + 1;
  if st.steps > st.budget then raise Out_of_steps;
  let ops = xb.Image.ops in
  for k = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops k with
    | Image.Run (off, len, insts) ->
      emit_fetch st (xb.Image.addr + off) len insts;
      st.s_bytes <- st.s_bytes + len
    | Image.Do_call { site_end; callee_idx; callee_cum } ->
      (* Calls beyond the depth limit are elided; the decision only
         depends on logical state, so it is layout-independent. *)
      if depth < st.depth_limit then begin
        st.call_seq <- st.call_seq + 1;
        let ci =
          if Array.length callee_idx = 1 then Array.unsafe_get callee_idx 0
          else Support.Rng.hash_pick xb.Image.uid st.call_seq callee_idx callee_cum
        in
        let centry = Image.block st.image ~func_idx:ci ~block:0 in
        let src = xb.Image.addr + site_end in
        st.s_calls <- st.s_calls + 1;
        emit_branch st src centry.Image.addr meta_call;
        let ret_src = exec_block st (depth + 1) centry in
        st.s_returns <- st.s_returns + 1;
        emit_branch st ret_src src meta_ret
      end
    | Image.Do_dload { site_end; miss_prob; covered } ->
      st.s_dloads <- st.s_dloads + 1;
      st.dload_seq <- st.dload_seq + 1;
      (* The miss roll depends only on logical state, so whether the
         access *would* miss is layout-invariant; prefetch coverage
         decides whether the pipeline actually stalls. *)
      if Support.Rng.hash_choice xb.Image.uid (0x0D10AD + st.dload_seq) miss_prob then begin
        if covered then st.s_dcovered <- st.s_dcovered + 1
        else begin
          st.s_dmisses <- st.s_dmisses + 1;
          emit_dmiss st (xb.Image.addr + site_end)
        end
      end
  done;
  (* [uid < Array.length st.visits] by construction: visits is sized
     from [Image.num_blocks] of the very image being executed. *)
  let uid = xb.Image.uid in
  let visit = Array.unsafe_get st.visits uid in
  Array.unsafe_set st.visits uid (visit + 1);
  match xb.Image.term with
  | Ir.Term.Jump _ -> goto st depth xb xb.Image.succ0 1
  | Ir.Term.Branch { prob; _ } ->
    let take = Support.Rng.hash_choice uid visit prob in
    goto st depth xb (if take then xb.Image.succ0 else xb.Image.succ1) 0
  | Ir.Term.Switch _ ->
    let s = xb.Image.succ_tab in
    let i = Support.Rng.hash_pick_pos uid visit xb.Image.term_cum (Array.length s) in
    goto st depth xb (Array.unsafe_get s i) 2
  | Ir.Term.Return -> xb.Image.addr + xb.Image.size

(* [kindc]: 0 = Cond, 1 = Uncond, 2 = Indirect (dense codes shared with
   Event.kind_to_int). *)
and goto st depth xb nxt kindc =
  let src = xb.Image.addr + xb.Image.size in
  let physically_taken = nxt.Image.addr <> src in
  (if kindc = 0 then begin
     st.s_cond <- st.s_cond + 1;
     if physically_taken then begin
       st.s_cond_taken <- st.s_cond_taken + 1;
       emit_branch st src nxt.Image.addr meta_cond_taken
     end
     else emit_branch st src nxt.Image.addr meta_cond_not_taken
   end
   else if kindc = 1 then begin
     if physically_taken then begin
       st.s_uncond <- st.s_uncond + 1;
       emit_branch st src nxt.Image.addr meta_uncond
     end
   end
   else begin
     st.s_indirect <- st.s_indirect + 1;
     emit_branch st src nxt.Image.addr meta_indirect
   end);
  exec_block st depth nxt

(* Each domain keeps one tape between runs, so a run allocates none. A
   run takes it out of the slot and puts it back after its final flush;
   a run nested inside a drain finds the slot empty and makes its own. *)
let spare_tape : Event.tape option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let take_tape () =
  match Domain.DLS.get spare_tape with
  | Some tape ->
    Domain.DLS.set spare_tape None;
    tape.len <- 0;
    tape
  | None -> Event.create_tape ()

(* The engine writes the flat event tape and hands full tapes to
   [drain]; for {!Event.null} it writes none. *)
let run ?ctx image config drain =
  let r =
    match ctx with
    | Some c -> c.Support.Ctx.recorder
    | None -> Obs.Recorder.global
  in
  Obs.Recorder.with_span r "exec:run" @@ fun () ->
  let st =
    {
      image;
      tape = take_tape ();
      record = drain != Event.null;
      drain;
      depth_limit = config.call_depth_limit;
      visits = Array.make (Image.num_blocks image + 2) 0;
      call_seq = 0;
      steps = 0;
      budget = 0;
      s_blocks = 0;
      s_bytes = 0;
      s_cond = 0;
      s_cond_taken = 0;
      s_uncond = 0;
      s_indirect = 0;
      s_calls = 0;
      s_returns = 0;
      s_dloads = 0;
      s_dmisses = 0;
      s_dcovered = 0;
      dload_seq = 0;
    }
  in
  let completed = ref 0 in
  for r = 0 to config.requests - 1 do
    st.budget <- st.steps + config.max_steps_per_request;
    (try
       let ret_src = exec_func st (Image.entry_func image) 0 in
       (* The root return leaves the program (to the libc stub below the
          text segment); real LBRs record it, so the profiler must see
          it too — otherwise fall-through ranges ending at the entry
          function's exit are unobservable. *)
       emit_branch st ret_src 0x1000 meta_ret
     with Out_of_steps -> ());
    incr completed;
    emit_request st r
  done;
  flush st;
  Domain.DLS.set spare_tape (Some st.tape);
  {
    blocks_executed = st.s_blocks;
    bytes_fetched = st.s_bytes;
    cond_branches = st.s_cond;
    cond_taken = st.s_cond_taken;
    uncond_jumps = st.s_uncond;
    indirect_jumps = st.s_indirect;
    calls = st.s_calls;
    returns = st.s_returns;
    dloads = st.s_dloads;
    dmisses = st.s_dmisses;
    dcovered = st.s_dcovered;
    requests_completed = !completed;
  }

let run_tape ?ctx image config ~drain = run ?ctx image config drain
