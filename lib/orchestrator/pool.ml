module Engine = Solver.Engine

(* Executors and the owner meet under [lock]. The wake pipe holds one byte
   exactly while [results] is non-empty (written on its empty -> non-empty
   step, read on the way back, both under [lock]), so [select] on [wake_r]
   is level-triggered on "a result is ready". *)
type 'r t = {
  lock : Mutex.t;
  work : Condition.t;  (* a task was queued, or the pool is closing *)
  ready : Condition.t;  (* a result was queued *)
  tasks : (worker_id:int -> zeal:Engine.t -> cove:Engine.t -> 'r) Queue.t;
  results : 'r Queue.t;
  mutable closing : bool;
  executors : unit Domain.t list Lazy.t;  (* spawned by the first submit *)
  inline : (Engine.t * Engine.t) Lazy.t;  (* the owner's, for 0 slots *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

(* zeal first: the order [Engine.prewarm] builds the coverage tables in *)
let engines () =
  let zeal = Engine.zeal () in
  (zeal, Engine.cove ())

let push_result t r =
  if Queue.is_empty t.results then
    ignore (Unix.write_substring t.wake_w "x" 0 1);
  Queue.push r t.results;
  Condition.signal t.ready

let pop_result t =
  let r = Queue.pop t.results in
  if Queue.is_empty t.results then ignore (Unix.read t.wake_r (Bytes.create 1) 0 1);
  r

let rec executor t worker_id ~zeal ~cove =
  let next =
    Mutex.protect t.lock (fun () ->
        while Queue.is_empty t.tasks && not t.closing do
          Condition.wait t.work t.lock
        done;
        Queue.take_opt t.tasks)
  in
  match next with
  | None -> ()
  | Some task ->
    let r = task ~worker_id ~zeal ~cove in
    Mutex.protect t.lock (fun () -> push_result t r);
    executor t worker_id ~zeal ~cove

let create ~slots =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  (* backtrace recording is per-domain runtime state: a fresh domain starts
     from the OCAMLRUNPARAM default, so mirror the creator's *)
  let backtraces = Printexc.backtrace_status () in
  let rec t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      ready = Condition.create ();
      tasks = Queue.create ();
      results = Queue.create ();
      closing = false;
      executors =
        lazy
          (List.init slots (fun worker_id ->
               Domain.spawn (fun () ->
                   Printexc.record_backtrace backtraces;
                   let zeal, cove = engines () in
                   executor t worker_id ~zeal ~cove)));
      inline = lazy (engines ());
      wake_r;
      wake_w;
    }
  in
  t

let submit t task =
  Mutex.protect t.lock (fun () ->
      Queue.push task t.tasks;
      Condition.signal t.work);
  (* spawned once the first task is queued: executor 0 starts first and
     takes it, which keeps a campaign's [worker] telemetry labels stable *)
  ignore (Lazy.force t.executors)

let run_inline t task =
  let zeal, cove = Lazy.force t.inline in
  task ~worker_id:0 ~zeal ~cove

let take t =
  if Lazy.force t.executors = [] then run_inline t (Queue.pop t.tasks)
  else
    Mutex.protect t.lock (fun () ->
        while Queue.is_empty t.results do
          Condition.wait t.ready t.lock
        done;
        pop_result t)

let try_take t =
  Mutex.protect t.lock (fun () ->
      if Queue.is_empty t.results then None else Some (pop_result t))

let ready_fd t = t.wake_r

let close t =
  Mutex.protect t.lock (fun () ->
      t.closing <- true;
      Condition.broadcast t.work);
  if Lazy.is_val t.executors then List.iter Domain.join (Lazy.force t.executors);
  Queue.iter (fun task -> Queue.push (run_inline t task) t.results) t.tasks;
  Unix.close t.wake_r;
  Unix.close t.wake_w;
  List.of_seq (Queue.to_seq t.results)
