(* One worker's share of a batch: a contiguous index range whose next
   unclaimed index is [next]. Every worker claims from it with one
   fetch-and-add, so a claim takes no lock; the cursor may run past
   [stop], which just means the share is drained. *)
type share = { next : int Atomic.t; stop : int }

type batch = {
  run : int -> unit;
  shares : share array;
  mutable finished_workers : int;  (* guarded by the pool mutex *)
  (* First (lowest task index) exception observed, guarded by the pool
     mutex; re-raised by the coordinator so failure is deterministic. *)
  mutable first_error : (int * exn * Printexc.raw_backtrace) option;
  batch_tasks : int array;  (* per worker; each slot written by its owner *)
  batch_steals : int array;
}

type stats = { tasks_per_worker : int array; steals : int; batches : int }

type t = {
  n_jobs : int;
  m : Mutex.t;
  work : Condition.t;  (* new batch available / stop requested *)
  done_ : Condition.t;  (* a worker finished its share of the batch *)
  mutable batch : batch option;
  mutable generation : int;
  mutable stop : bool;
  mutable domains : unit Domain.t array;  (* spawned lazily; n_jobs - 1 *)
  cum_tasks : int array;
  mutable cum_steals : int;
  mutable cum_batches : int;
}

(* --- defaults and the shared pool --------------------------------- *)

let default_jobs_ref = ref 1

let default_jobs () = !default_jobs_ref

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  default_jobs_ref := j

let jobs t = t.n_jobs

let create ?jobs () =
  let n_jobs = match jobs with Some j -> j | None -> default_jobs () in
  if n_jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  {
    n_jobs;
    m = Mutex.create ();
    work = Condition.create ();
    done_ = Condition.create ();
    batch = None;
    generation = 0;
    stop = false;
    domains = [||];
    cum_tasks = Array.make n_jobs 0;
    cum_steals = 0;
    cum_batches = 0;
  }

(* --- worker protocol ----------------------------------------------- *)

(* Tasks must not re-enter the pool's barrier (a worker waiting on a
   nested batch would starve the outer one), so batches issued from
   inside a task run inline on the calling domain. *)
let inside_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let record_error pool b idx e bt =
  Mutex.lock pool.m;
  (match b.first_error with
  | Some (i0, _, _) when i0 <= idx -> ()
  | Some _ | None -> b.first_error <- Some (idx, e, bt));
  Mutex.unlock pool.m

let run_task pool b idx =
  try b.run idx
  with e -> record_error pool b idx e (Printexc.get_raw_backtrace ())

(* Drain the batch as worker [w]: its own share first, then the other
   shares in the order [w + 1], [w + 2], ... (mod jobs). A task claimed
   from another worker's share counts as a steal. *)
let run_worker pool b w =
  let flag = Domain.DLS.get inside_task in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) @@ fun () ->
  let n = Array.length b.shares in
  for k = 0 to n - 1 do
    let s = b.shares.((w + k) mod n) in
    let rec drain () =
      let i = Atomic.fetch_and_add s.next 1 in
      if i < s.stop then begin
        run_task pool b i;
        b.batch_tasks.(w) <- b.batch_tasks.(w) + 1;
        if k > 0 then b.batch_steals.(w) <- b.batch_steals.(w) + 1;
        drain ()
      end
    in
    drain ()
  done

let worker_loop pool wid =
  let my_gen = ref 0 in
  let rec loop () =
    Mutex.lock pool.m;
    while (not pool.stop) && pool.generation = !my_gen do
      Condition.wait pool.work pool.m
    done;
    if pool.stop then Mutex.unlock pool.m
    else begin
      my_gen := pool.generation;
      let b = Option.get pool.batch in
      Mutex.unlock pool.m;
      run_worker pool b wid;
      Mutex.lock pool.m;
      b.finished_workers <- b.finished_workers + 1;
      if b.finished_workers = pool.n_jobs then Condition.broadcast pool.done_;
      Mutex.unlock pool.m;
      loop ()
    end
  in
  loop ()

(* --- lifecycle ----------------------------------------------------- *)

let shutdown pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.work;
  let ds = pool.domains in
  pool.domains <- [||];
  Mutex.unlock pool.m;
  Array.iter Domain.join ds

(* Every pool that ever spawned a domain, so a single [at_exit] hook
   can join them all — leaked worker domains must never hang exit. *)
let live_pools : t list ref = ref []

let live_m = Mutex.create ()

let at_exit_installed = ref false

let register_live pool =
  Mutex.lock live_m;
  live_pools := pool :: !live_pools;
  if not !at_exit_installed then begin
    at_exit_installed := true;
    at_exit (fun () ->
        Mutex.lock live_m;
        let ps = !live_pools in
        live_pools := [];
        Mutex.unlock live_m;
        List.iter shutdown ps)
  end;
  Mutex.unlock live_m

let unregister_live pool =
  Mutex.lock live_m;
  live_pools := List.filter (fun p -> p != pool) !live_pools;
  Mutex.unlock live_m

let spawn_if_needed pool =
  if Array.length pool.domains = 0 && pool.n_jobs > 1 && not pool.stop then begin
    pool.domains <-
      Array.init (pool.n_jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop pool (i + 1)));
    register_live pool
  end

(* --- batch execution ----------------------------------------------- *)

let run_sequential pool total run =
  for i = 0 to total - 1 do
    run i
  done;
  pool.cum_tasks.(0) <- pool.cum_tasks.(0) + total;
  pool.cum_batches <- pool.cum_batches + 1

let make_shares n_jobs total =
  let base = total / n_jobs and extra = total mod n_jobs in
  Array.init n_jobs (fun w ->
      let lo = (w * base) + min w extra in
      { next = Atomic.make lo; stop = lo + base + if w < extra then 1 else 0 })

let run_batch pool ~total run =
  if total = 0 then ()
  else if pool.n_jobs = 1 || pool.stop || total = 1 || !(Domain.DLS.get inside_task) then begin
    (* Sequential path: jobs=1, nested call, or degenerate batch. Runs
       in index order — the reference behaviour parallel runs must
       reproduce. Exceptions propagate directly from the failing task,
       which is also the lowest-index failure. *)
    let flag = Domain.DLS.get inside_task in
    let was = !flag in
    flag := true;
    Fun.protect ~finally:(fun () -> flag := was) @@ fun () ->
    run_sequential pool total run
  end
  else begin
    spawn_if_needed pool;
    if Array.length pool.domains = 0 then run_sequential pool total run
    else begin
      let b =
        {
          run;
          shares = make_shares pool.n_jobs total;
          finished_workers = 0;
          first_error = None;
          batch_tasks = Array.make pool.n_jobs 0;
          batch_steals = Array.make pool.n_jobs 0;
        }
      in
      Mutex.lock pool.m;
      pool.batch <- Some b;
      pool.generation <- pool.generation + 1;
      Condition.broadcast pool.work;
      Mutex.unlock pool.m;
      run_worker pool b 0;
      Mutex.lock pool.m;
      b.finished_workers <- b.finished_workers + 1;
      if b.finished_workers = pool.n_jobs then Condition.broadcast pool.done_;
      while b.finished_workers < pool.n_jobs do
        Condition.wait pool.done_ pool.m
      done;
      pool.batch <- None;
      Mutex.unlock pool.m;
      Array.iteri (fun w k -> pool.cum_tasks.(w) <- pool.cum_tasks.(w) + k) b.batch_tasks;
      pool.cum_steals <- pool.cum_steals + Array.fold_left ( + ) 0 b.batch_steals;
      pool.cum_batches <- pool.cum_batches + 1;
      match b.first_error with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* --- derived operations -------------------------------------------- *)

let map_array pool n f =
  if n < 0 then invalid_arg "Pool.map_array: negative size";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run_batch pool ~total:n (fun i -> results.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list pool f xs =
  let arr = Array.of_list xs in
  Array.to_list (map_array pool (Array.length arr) (fun i -> f arr.(i)))

let map_reduce pool ~n ~task ~init ~fold = Array.fold_left fold init (map_array pool n task)

let parallel_iter pool ~n f =
  if n < 0 then invalid_arg "Pool.parallel_iter: negative size";
  run_batch pool ~total:n f

let stats pool =
  { tasks_per_worker = Array.copy pool.cum_tasks; steals = pool.cum_steals; batches = pool.cum_batches }

let reset_stats pool =
  Array.fill pool.cum_tasks 0 (Array.length pool.cum_tasks) 0;
  pool.cum_steals <- 0;
  pool.cum_batches <- 0

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect
    ~finally:(fun () ->
      shutdown pool;
      unregister_live pool)
    (fun () -> f pool)

(* The shared default pool. Swapped out (old workers joined) when the
   process default changes — [--jobs] flags call [set_default_jobs]
   once at startup, before any build runs. *)
let global_pool = ref None

let global () =
  match !global_pool with
  | Some p when p.n_jobs = default_jobs () && not p.stop -> p
  | prev ->
    (match prev with
    | Some p ->
      shutdown p;
      unregister_live p
    | None -> ());
    let p = create ~jobs:(default_jobs ()) () in
    global_pool := Some p;
    p
