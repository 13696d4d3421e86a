(** A minimal self-contained JSON value type, printer, and parser.

    The telemetry event log is JSONL (one object per line); the environment
    ships no JSON library, so this module implements the subset we need:
    objects, arrays, strings with the standard escapes, booleans, null, and
    numbers. Floats are always printed in a form JSON accepts (never [nan],
    [inf], or a bare trailing dot). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no newlines, suitable for JSONL). *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing whitespace is allowed, trailing
    garbage is an error. *)

val parse_located : string -> (t, int * string) result
(** Like {!parse} but the error carries the byte offset separately, for
    callers that want to point at the failure position in their own
    diagnostics (e.g. truncated-checkpoint detection). [parse] is
    [parse_located] with the offset folded into the message. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** First binding of the field in an [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** [Int] and [Float] both coerce. *)

val to_int : t -> int option
val to_str : t -> string option
val to_bool : t -> bool option

val equal : t -> t -> bool
(** Structural equality, except [Int n] and [Float f] compare equal when
    [float_of_int n = f] (the printer may legally narrow [2.0] to [2]). *)

(** {1 Codecs}

    One value per type that both encodes and decodes, so a format's field
    list is written once. Records are built member by member —
    [obj make |> mem "k" c get |> opt_mem "k" c ~default get |> finish] —
    and encode their members in [mem] order. Decode errors carry a path,
    e.g. [field "completed": element 0: field "shard": expected an int].
    A present member of the wrong type is always an error; only [opt_mem]
    and [field_or] supply defaults, and only for absent members. *)
module Codec : sig
  type json := t
  type 'a t = { enc : 'a -> json; dec : json -> ('a, string) result }

  val int : int t
  val string : string t
  val bool : bool t

  val float : float t
  (** Also decodes an [Int]. *)

  val list : 'a t -> 'a list t

  val assoc : 'a t -> (string * 'a) list t
  (** A JSON object, in member order. *)

  val nullable : 'a t -> 'a option t
  (** [None] is [null]. *)

  val conv : ('b -> 'a) -> ('a -> ('b, string) result) -> 'a t -> 'b t
  (** [conv to_a of_a c] encodes through [to_a] and validates through
      [of_a]. *)

  val context : string -> 'a t -> 'a t
  (** Prefix decode errors with [name ^ ": "] (e.g. ["checkpoint"]). *)

  (** {2 Records} *)

  type ('r, 'k) fields

  val obj : 'k -> ('r, 'k) fields
  (** Start a record codec from its constructor: a function taking the
      members in [mem] order. *)

  val mem :
    string -> 'a t -> ('r -> 'a) -> ('r, 'a -> 'k) fields -> ('r, 'k) fields
  (** A required member. *)

  val opt_mem :
    string -> 'a t -> default:'a -> ('r -> 'a) -> ('r, 'a -> 'k) fields -> ('r, 'k) fields
  (** A member that decodes to [default] when absent (always encoded). *)

  val finish : ('r, 'r) fields -> 'r t

  (** {2 Hand-written decoders} (tagged variants, open field lists) *)

  val field : string -> 'a t -> json -> ('a, string) result
  (** [field k c j] decodes member [k] of the object [j] with [c]. *)

  val field_or : string -> 'a t -> default:'a -> json -> ('a, string) result
  (** [field], but [default] when the member is absent. *)

  val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
end
