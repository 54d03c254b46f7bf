(* A dense binary max-heap in [0, size) over three parallel arrays:
   entry [i] has priority [prio.(i)], push sequence number [seq.(i)] and
   key [key.(i)]. The float array is unboxed and both sifts move a hole
   rather than swapping entries, so neither allocates. Entry i outranks
   entry j on a higher priority, or an equal one pushed earlier. *)
type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable key : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { prio = [||]; seq = [||]; key = [||]; size = 0; next_seq = 0 }

let length t = t.size

let grow t =
  let cap = max 16 (2 * t.size) in
  let extend a fill =
    let fresh = Array.make cap fill in
    Array.blit a 0 fresh 0 t.size;
    fresh
  in
  t.prio <- extend t.prio 0.0;
  t.seq <- extend t.seq 0;
  t.key <- extend t.key 0

let add t ~priority key =
  if t.size = Array.length t.prio then grow t;
  let prio = t.prio and seq = t.seq and keys = t.key in
  let s = t.next_seq in
  t.next_seq <- s + 1;
  (* Move the hole up from the end while the new entry outranks its
     parent. *)
  let i = ref t.size in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prio parent in
    priority > pp || (priority = pp && s < Array.unsafe_get seq parent)
  do
    let parent = (!i - 1) / 2 in
    Array.unsafe_set prio !i (Array.unsafe_get prio parent);
    Array.unsafe_set seq !i (Array.unsafe_get seq parent);
    Array.unsafe_set keys !i (Array.unsafe_get keys parent);
    i := parent
  done;
  Array.unsafe_set prio !i priority;
  Array.unsafe_set seq !i s;
  Array.unsafe_set keys !i key;
  t.size <- t.size + 1

let max_priority t =
  if t.size = 0 then invalid_arg "Pqueue.max_priority: empty queue" else t.prio.(0)

let pop_max t =
  if t.size = 0 then invalid_arg "Pqueue.pop_max: empty queue";
  let prio = t.prio and seq = t.seq and keys = t.key in
  let top = Array.unsafe_get keys 0 in
  let size = t.size - 1 in
  t.size <- size;
  if size > 0 then begin
    (* Re-seat the last entry: move the hole down from the root while a
       child outranks it. *)
    let p = Array.unsafe_get prio size and s = Array.unsafe_get seq size in
    let k = Array.unsafe_get keys size in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= size then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < size
             &&
             let pr = Array.unsafe_get prio r and pl = Array.unsafe_get prio l in
             pr > pl || (pr = pl && Array.unsafe_get seq r < Array.unsafe_get seq l)
          then r
          else l
        in
        let pc = Array.unsafe_get prio c in
        if pc > p || (pc = p && Array.unsafe_get seq c < s) then begin
          Array.unsafe_set prio !i pc;
          Array.unsafe_set seq !i (Array.unsafe_get seq c);
          Array.unsafe_set keys !i (Array.unsafe_get keys c);
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set prio !i p;
    Array.unsafe_set seq !i s;
    Array.unsafe_set keys !i k
  end;
  top
