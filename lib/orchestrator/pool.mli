(** One executor pool, on which every venue runs its shards: [fuzz --jobs],
    the campaign server's local slots and a remote worker's slots.

    Each of [slots] executor domains builds its own solver engines, mirrors
    the creating domain's [Printexc.record_backtrace] status (so a raise
    costs the same counted words on every path, which keeps the profile's
    exact allocation total identical at any [--jobs]) and runs tasks in
    FIFO order. With [slots = 0] nothing is spawned: {!take} runs the oldest
    task on the calling domain. Only the creating domain may use the pool.
    Tasks must not raise; results come back in completion order. *)

type 'r t

val create : slots:int -> 'r t
(** The executors are spawned by the first {!submit}. *)

val submit :
  'r t ->
  (worker_id:int -> zeal:Solver.Engine.t -> cove:Solver.Engine.t -> 'r) ->
  unit
(** Queue a task; it runs with its executor's index ([0] inline) and
    engines. *)

val take : 'r t -> 'r
(** The next result, blocking until one is ready; call it only while a
    submitted task's result is not yet taken. *)

val try_take : 'r t -> 'r option
(** A result that is ready, if any; never runs a task, never blocks. *)

val ready_fd : 'r t -> Unix.file_descr
(** Readable exactly while a result is ready, for owners that wait in
    [select]. Do not read it. *)

val close : 'r t -> 'r list
(** Run every task still queued, join the executors, and return the
    results not yet taken, in completion order. *)
