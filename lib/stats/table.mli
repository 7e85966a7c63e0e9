(** Plain-text table rendering for benchmark output: fixed-width columns,
    right-aligned numerics, a header rule — the same rows the paper's
    tables and figure series report. *)

type align = Left | Right

type t

(** [create ~columns] with [(header, alignment)] per column. *)
val create : columns:(string * align) list -> t

(** Append a row; must have exactly as many cells as columns. *)
val add_row : t -> string list -> unit

(** Render to a string, header first. *)
val render : t -> string

(** [print t] renders to [oc] (default [stdout]) — the explicit channel
    keeps library code honest about where output goes; the implicit
    stdout printers are banned in [lib/] by the analyzer. *)
val print : ?oc:out_channel -> t -> unit

(** Formatting helpers used throughout bench output. *)
val cell_f : ?decimals:int -> float -> string

val cell_i : int -> string
val cell_pct : float -> string
