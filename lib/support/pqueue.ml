type handle = int

type 'a entry = { value : 'a; mutable priority : float; seq : int; handle : handle }

type 'a t = {
  mutable heap : 'a entry array; (* dense binary max-heap in [0, size) *)
  mutable size : int;
  mutable next_seq : int;
  mutable next_handle : int;
  mutable positions : int array;
      (* handle -> heap index, or -1 once removed; grows with [next_handle] *)
}

let create () = { heap = [||]; size = 0; next_seq = 0; next_handle = 0; positions = [||] }

let length t = t.size

let is_empty t = t.size = 0

(* Entry [a] outranks [b] on higher priority; earlier insertion wins ties
   to keep pop order deterministic. *)
let outranks a b = a.priority > b.priority || (a.priority = b.priority && a.seq < b.seq)

let set t i e =
  t.heap.(i) <- e;
  t.positions.(e.handle) <- i

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if outranks t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      set t i t.heap.(parent);
      set t parent tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.size && outranks t.heap.(l) t.heap.(!best) then best := l;
  if r < t.size && outranks t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    let tmp = t.heap.(i) in
    set t i t.heap.(!best);
    set t !best tmp;
    sift_down t !best
  end

let grow t =
  let cap = Array.length t.heap in
  if t.size >= cap then begin
    let new_cap = max 16 (cap * 2) in
    let fresh = Array.make new_cap t.heap.(0) in
    Array.blit t.heap 0 fresh 0 t.size;
    t.heap <- fresh
  end

let grow_positions t h =
  let cap = Array.length t.positions in
  if h >= cap then begin
    let fresh = Array.make (max 16 (cap * 2)) (-1) in
    Array.blit t.positions 0 fresh 0 cap;
    t.positions <- fresh
  end

let add t ~priority v =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  grow_positions t h;
  let e = { value = v; priority; seq = t.next_seq; handle = h } in
  t.next_seq <- t.next_seq + 1;
  if Array.length t.heap = 0 then t.heap <- Array.make 16 e else grow t;
  set t t.size e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1);
  h

(* Heap index of a live handle, or -1 (dead, negative or never issued). *)
let position t h = if h >= 0 && h < t.next_handle then t.positions.(h) else -1

let mem t h = position t h >= 0

let remove_at t i =
  let last = t.size - 1 in
  t.positions.(t.heap.(i).handle) <- -1;
  if i <> last then begin
    set t i t.heap.(last);
    t.size <- last;
    sift_up t i;
    sift_down t i
  end
  else t.size <- last

let remove t h =
  let i = position t h in
  if i < 0 then invalid_arg "Pqueue.remove: dead handle" else remove_at t i

let update t h ~priority =
  let i = position t h in
  if i < 0 then invalid_arg "Pqueue.update: dead handle"
  else begin
    t.heap.(i) <- { (t.heap.(i)) with priority };
    sift_up t i;
    sift_down t t.positions.(h)
  end

let pop_max t =
  if t.size = 0 then None
  else begin
    let e = t.heap.(0) in
    remove_at t 0;
    Some (e.value, e.priority)
  end

let peek_max t = if t.size = 0 then None else Some (t.heap.(0).value, t.heap.(0).priority)

let iter t f =
  for i = 0 to t.size - 1 do
    f t.heap.(i).value
  done
