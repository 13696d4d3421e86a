(** One structured telemetry event — a timestamp, a dotted event name
    (["oracle.verdict"], ["span"], ["fuzz.test"], …), and free-form fields.

    On the wire an event is a single JSON object per line:
    [{"ts":1754.2,"event":"oracle.verdict","solver":"zeal","verdict":"sat"}].
    The ["ts"] and ["event"] keys are reserved; field keys must not collide
    with them. *)

type t = {
  ts : float;  (** seconds since the Unix epoch *)
  name : string;
  fields : (string * Json.t) list;
}

val make : ts:float -> name:string -> (string * Json.t) list -> t

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val codec : t Json.Codec.t
(** [to_json]/[of_json] as a codec. Hand-written because an event's field
    list is open. *)

val to_line : t -> string
(** Single-line JSON, no trailing newline. *)

val of_line : string -> (t, string) result

val parse_log : string -> t list * int * bool
(** [parse_log contents] reads a whole JSONL log: the events in file order,
    the number of malformed lines, and whether the log ends in a {e torn}
    line — a final line that both fails to parse and lacks its terminating
    newline, the signature of a writer killed mid-write. The torn line is
    skipped and not counted as malformed; blank lines are ignored. *)

val field : string -> t -> Json.t option

(** {1 Log schema versioning} *)

val schema_version : int
(** Version of the JSONL wire format this library writes. *)

val schema_event_name : string
(** ["telemetry.schema"] — the header event's name. *)

val schema_event : ts:float -> t
(** The header event [Sink.open_jsonl] writes as the first line of every
    log: [{"ts":…,"event":"telemetry.schema","version":N}]. *)

val log_schema_version : t list -> int option
(** The version declared by the first ["telemetry.schema"] event, if any.
    [None] means the log predates versioning (read it as version 1). *)

val equal : t -> t -> bool
(** Field-wise equality; timestamps compare with [Json.equal]'s numeric
    coercion so a round trip through the printer is stable. *)
