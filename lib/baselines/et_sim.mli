(** ET-style baseline (Winterer & Su, OOPSLA 2024): grammar-based bounded
    enumeration from scratch over the standard theories. Enumeration is
    systematic (depth-increasing), so diversity is high near the small end
    but deep solver states are expensive to reach — the weakness the paper
    attributes to from-scratch generation. *)

val make : unit -> Fuzzer.t
(** A fresh ET fuzzer. Its enumeration depth grows with its own calls (one
    step per 4,000), never with another fuzzer's, so its output depends only
    on the RNGs it is given and how many calls it made. Like an engine, a
    fuzzer value belongs to one domain at a time. *)
