(** See pool.mli. *)

let default_jobs () = Domain.recommended_domain_count ()

(* Worker domains outlive the [map] call that spawned them and wait, parked,
   for the next call's work: a process that runs many grids spawns its
   domains once, not once per grid.  Under OCaml 5.1 every domain that
   terminates leaves part of its major heap behind, so a domain per grid
   grew the heap by about 0.15 MB per grid (Table I grid, 2-vCPU VM). *)
type worker = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable task : [ `Idle | `Run of unit -> unit | `Stop ];
}

let rec serve w =
  let next =
    Mutex.protect w.lock (fun () ->
        let rec await () =
          match w.task with
          | `Idle ->
            Condition.wait w.wake w.lock;
            await ()
          | `Run task ->
            w.task <- `Idle;
            Some task
          | `Stop -> None
        in
        await ())
  in
  match next with
  | Some task ->
    task ();
    serve w
  | None -> ()

let post w task =
  Mutex.protect w.lock (fun () ->
      w.task <- task;
      Condition.signal w.wake)

(* parked workers, and every worker's domain for the exit-time join *)
let registry = Mutex.create ()
let idle : worker list ref = ref []
let domains : (worker * unit Domain.t) list ref = ref []

let acquire () =
  match
    Mutex.protect registry (fun () ->
        match !idle with
        | w :: rest ->
          idle := rest;
          Some w
        | [] -> None)
  with
  | Some w -> w
  | None ->
    let w = { lock = Mutex.create (); wake = Condition.create (); task = `Idle } in
    let d = Domain.spawn (fun () -> serve w) in
    Mutex.protect registry (fun () -> domains := (w, d) :: !domains);
    w

let release ws = Mutex.protect registry (fun () -> idle := ws @ !idle)

let () =
  at_exit (fun () ->
      let all = Mutex.protect registry (fun () -> !domains) in
      List.iter (fun (w, _) -> post w `Stop) all;
      List.iter
        (fun (_, d) ->
          if Domain.get_id d <> Domain.self () then Domain.join d)
        all)

let map ?(jobs = 0) ?on_result (f : int -> 'a -> 'b) (items : 'a array) :
    ('b, exn) result array =
  let n = Array.length items in
  let jobs = if jobs <= 0 then default_jobs () else jobs in
  let jobs = max 1 (min jobs n) in
  let results : ('b, exn) result option array = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let r =
        try
          let v = f i items.(i) in
          (match on_result with Some g -> g i v | None -> ());
          Ok v
        with e -> Error e
      in
      (* disjoint slots: no two domains ever write the same index *)
      results.(i) <- Some r;
      work ()
    end
  in
  if jobs = 1 then work ()
  else begin
    let helpers = List.init (jobs - 1) (fun _ -> acquire ()) in
    let pending = ref (jobs - 1) in
    let lock = Mutex.create () and finished = Condition.create () in
    List.iter
      (fun w ->
        post w
          (`Run
            (fun () ->
              work ();
              Mutex.protect lock (fun () ->
                  decr pending;
                  if !pending = 0 then Condition.signal finished))))
      helpers;
    work ();
    Mutex.protect lock (fun () ->
        while !pending > 0 do
          Condition.wait finished lock
        done);
    release helpers
  end;
  Array.map (function Some r -> r | None -> assert false) results
