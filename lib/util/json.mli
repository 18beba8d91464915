(** Minimal JSON abstract syntax, printer, and parser.

    The paper's implementation serializes design spaces to a JSON
    configuration file consumed by HyperMapper (§4); this module provides
    the same interchange surface without external dependencies. It supports
    the full JSON grammar except for surrogate-pair escapes (non-BMP code
    points in [\u] escapes are replaced with ['?']). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize; [pretty] (default true) indents with two spaces. Numbers that
    are integral print without a decimal point. Non-finite numbers print as
    the [NaN] / [Infinity] / [-Infinity] extension literals (as Python's
    [json] module emits), which {!of_string} parses back, so every float the
    system can produce survives a write -> read cycle. *)

exception Parse_error of { position : int; message : string }

val of_string : string -> t
(** Parse a complete JSON document. @raise Parse_error with the byte offset
    of the failure. *)

(** Accessors ([Invalid_argument] on shape mismatch and on a missing object
    member): *)

val member : t -> string -> t
val member_opt : t -> string -> t option
val to_float : t -> float
val to_int : t -> int
(** @raise Invalid_argument when the number is not integral. *)

val to_bool : t -> bool
val to_list : t -> t list
val get_string : t -> string

val equal : t -> t -> bool
(** Structural equality with order-insensitive objects. Numbers compare with
    [Float.equal], so [Number nan] equals itself. *)
