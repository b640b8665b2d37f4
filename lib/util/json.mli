(** Minimal JSON emitter/parser for machine-readable benchmark results.

    Deliberately dependency-free: the container bakes in no JSON library.
    The harness {e writes} JSON ([simbench report --json]) and the
    regression detector ({!Sb_regress}) {e reads} it back.  Non-finite
    floats serialise as [null] (JSON has no NaN); the float accessor maps
    [null] back to [nan]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no whitespace), with full string escaping. *)

val of_string : string -> (t, string) result
(** Strict recursive-descent parse of one JSON value (trailing whitespace
    allowed, trailing garbage is an error).  Errors carry the position:
    ["line L, column C: message"].  Numbers without ['.'], ['e'] or ['E']
    parse as [Int] (degrading to [Float] beyond [int] range); [\uXXXX]
    escapes, including surrogate pairs, decode to UTF-8.  An array or
    object nested more than 512 deep is an error ("nesting deeper than
    512"), found at its opening bracket, so untrusted input costs time
    linear in its length. *)

val of_file : string -> (t, string) result
(** {!of_string} of a whole file.  Every error starts with the path: one
    that cannot be opened or read (a directory, say) and one that does not
    parse alike. *)

(** {2 Accessors}

    Shape probes used by the readers; all return [None] on a shape
    mismatch rather than raising. *)

val member : string -> t -> t option
(** Field of an [Obj] ([None] on missing field or non-object). *)

val string_opt : t -> string option
val int_opt : t -> int option

val float_opt : t -> float option
(** Accepts [Float], [Int] (widened) and [Null] (as [nan], the emitter's
    encoding of non-finite floats). *)

val list_opt : t -> t list option
