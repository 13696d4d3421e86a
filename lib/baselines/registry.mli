(** All comparison fuzzers, plus a {!Fuzzer.t} wrapper around Once4All itself
    so the experiment harnesses can drive every tool uniformly. *)

val baselines : client:Llm_sim.Client.t -> Fuzzer.t list
(** STORM, YinYang, OpFuzz, TypeFuzz, HistFuzz, Fuzz4All(-sim), ET(-sim) —
    the RQ2 lineup. Stateful fuzzers (ET's enumeration cursor) are built
    fresh by each call. *)

val once4all : Once4all.Campaign.t -> Fuzzer.t
(** The full skeleton-guided pipeline as a fuzzer. *)

val once4all_wos : Once4all.Campaign.t -> Fuzzer.t
(** The Once4All_w/oS ablation (no skeletons). *)

val find : client:Llm_sim.Client.t -> string -> Fuzzer.t option
(** Lookup a baseline by (case-insensitive) name. *)
