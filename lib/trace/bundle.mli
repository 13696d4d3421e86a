(** Self-contained repro bundles.

    A promoted trace becomes a directory named after its trace id:

    {v
    <dir>/<trace-id>/
      formula.smt2   the exact SMT-LIB text that triggered the finding
      trace.json     the provenance trace (Trace.codec)
      meta.json      finding, dedup key, campaign seed/tick, solver commits
      repro.sh       re-runs the differential oracle on formula.smt2 and
                     checks the finding signature reproduces
    v}

    [repro.sh] invokes [$ONCE4ALL replay formula.smt2 --expect SIG]
    (defaulting to an [once4all] on [$PATH]), so a bundle reproduces anywhere
    the CLI binary exists — no campaign state needed. Every file's content is
    a pure function of the promoted trace, so bundles from [--jobs N] and
    [--jobs 1] campaigns are byte-identical. *)

val ensure_dir : string -> unit
(** [mkdir -p]. *)

val write : dir:string -> Trace.promoted -> string
(** Write the bundle under [dir] (created if missing); returns the bundle
    directory path. An existing bundle with the same id is overwritten. *)

val load : path:string -> (Trace.promoted, string) result
(** Read a bundle directory back into the promoted trace it was written
    from. *)

val scan : dir:string -> Trace.promoted list * string list
(** All bundles directly under [dir], sorted by trace id (= campaign tick
    order), plus a warning per unreadable bundle. A missing [dir] is an empty
    scan. *)
