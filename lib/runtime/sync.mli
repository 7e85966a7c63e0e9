(** Exception-safe locking. [with_lock m f] runs [f ()] with [m] held
    and releases it on every exit path, including raising ones (via
    [Fun.protect]; an exception from [f] surfaces unchanged). This is
    the only module allowed to call [Mutex.lock] directly — the
    analyzer's [bare-mutex-lock] rule enforces it repo-wide.

    [Condition.wait c m] remains legal inside the critical section: it
    atomically releases and reacquires [m], so the protect-finally
    still unlocks exactly once. *)

val with_lock : Mutex.t -> (unit -> 'a) -> 'a
