(** One-shot blocking promise for cross-domain replies: the worker
    fulfils (or fails), the client blocks. Monitor-style (mutex +
    condition) so a waiting client yields its core instead of
    spinning. *)

type 'a t

val create : unit -> 'a t

(** Fulfil the promise; raises [Invalid_argument] on double
    completion. *)
val fulfil : 'a t -> 'a -> unit

(** Complete the promise with an exception that {!await} re-raises;
    raises [Invalid_argument] on double completion. *)
val fail : 'a t -> exn -> unit

(** Block until completed; return the value or re-raise the failure. *)
val await : 'a t -> 'a

(** Nonblocking poll: [None] while pending; re-raises a failure. *)
val peek : 'a t -> 'a option
