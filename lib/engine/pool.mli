(** Fixed worker-domain pool over one shared task cursor.

    [run ~jobs tasks] executes every task, using the calling domain as
    worker 0 plus up to [jobs - 1] spawned domains (none for [jobs = 1]
    or a single task).  Workers claim task indices from one atomic
    cursor, so each task runs at most once and on whichever worker is
    free first.  Each task receives the id of the worker that ran it.
    Returns when all workers have stopped.  A worker whose task raises
    stops; the other workers still run every task left unclaimed, and
    the first exception is then re-raised in the caller. *)

val run : jobs:int -> (worker:int -> unit) array -> unit
