type config = { period : int }

let default_config = { period = 19 }

type profile = { misses : Support.Itab.t; mutable num_samples : int }

let create_profile () = { misses = Support.Itab.create 256; num_samples = 0 }

type collector = { period : int; mutable since : int; profile : profile }

let collector_state (config : config) profile =
  { period = config.period; since = 0; profile }

let[@inline] on_dmiss_addr c src =
  c.since <- c.since + 1;
  if c.since >= c.period then begin
    c.since <- 0;
    c.profile.num_samples <- c.profile.num_samples + 1;
    Support.Itab.add c.profile.misses src 1
  end

(* Tape drain: only dmiss events matter to PEBS. *)
let consume c (tape : Exec.Event.tape) =
  let tags = tape.Exec.Event.tags and a = tape.Exec.Event.a in
  for i = 0 to tape.Exec.Event.len - 1 do
    if Bytes.unsafe_get tags i = Exec.Event.tag_dmiss then
      on_dmiss_addr c (Array.unsafe_get a i)
  done
