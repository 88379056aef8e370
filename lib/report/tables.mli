(** Regeneration of the paper's evaluation artifacts: Table 1 (line
    counts + verification times), Table 2 (concurroid reuse, checked for
    equality against the paper's matrix), Figure 5 (the dependency
    diagram, also checked). *)

type row1 = {
  r_name : string;
  r_counts : Loc_stats.counts;
  r_verify_time : float;  (** seconds — the Build-column analogue *)
  r_reports : Fcsl_core.Verify.report list;
}

val table1_row : Registry.case -> row1

val table1 : ?jobs:int -> unit -> row1 list
(** All Table 1 rows; with [jobs > 1] rows are verified in parallel on
    a domain pool (per-row times stay meaningful — each row runs on a
    single domain). *)

val pp_time : Format.formatter -> float -> unit

val row_tier : row1 -> Fcsl_core.Verify.tier
(** The worst degradation tier across a row's reports (Sampled worse
    than Exhaustive): a row is only as trustworthy as its weakest
    verdict. *)

val row_states : row1 -> int
(** Configurations explored across the row's reports — the States
    column. *)

val pp_table1 : Format.formatter -> row1 list -> unit
(** Renders the Tier column from {!row_tier}, a States column from
    {!row_states}, and flags DEGRADED rows; a trailing warning line
    appears when tiers are mixed (some rows verified below
    exhaustive). *)

val row_expl : row1 -> Fcsl_core.Verify.expl_stats option
(** Exploration counters aggregated across the row's reports (see
    {!Fcsl_core.Verify.merge_expl}); [None] when no report carries
    counters. *)

val pp_table1_stats : Format.formatter -> row1 list -> unit
(** The [table1 --stats] companion table: per-row memo hits/misses,
    the most distinct configuration keys in one memo bucket, and
    minor-heap allocation across the row's explorations.  Rows without
    counters (sampled or replayed verdicts) render dashes. *)

val columns : Registry.concurroid_use list
val column_header : Registry.concurroid_use -> string
val cell : Registry.concurroid_use list -> Registry.concurroid_use -> string
val pp_table2 : Format.formatter -> unit -> unit
val paper_table2 : (string * string list) list
val our_table2 : unit -> (string * string list) list
val table2_matches_paper : unit -> bool

val fig5_edges : unit -> (string * string) list
val paper_fig5 : (string * string) list
val fig5_matches_paper : unit -> bool
val pp_fig5 : Format.formatter -> unit -> unit
val pp_fig5_ascii : Format.formatter -> unit -> unit
