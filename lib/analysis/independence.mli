(** Static independence analysis (docs/ANALYSIS.md, §Independence):
    derive, per Table 1 case study, which pairs of schedulable moves
    commute.  The relation is a report, printed (or rendered as JSON) by
    [fcsl analyze --independence]; no engine consumes it.

    Three justification rules, each with a stable id:
    - {!rule_fp} ["indep-fp"]: declared footprints commute
      ({!Fcsl_core.Footprint.commutes});
    - {!rule_pcm} ["indep-pcm"]: same-label pairs whose contributions
      commute by the laws of the PCMs involved, certified by the law
      table plus an exhaustive step-commutation check over the case's
      enumerated coherent states;
    - {!rule_env} ["indep-env"]: environment transitions at distinct
      labels (other-fixity confines each to its own slice). *)

open Fcsl_core

val rule_fp : string
val rule_pcm : string
val rule_env : string

type any_action = Any : 'a Action.t -> any_action

type move = {
  m_name : string;
  m_fp : Footprint.t;
  m_env : Label.t option;  (** [Some l] for an environment transition *)
}

type verdict =
  | Independent of { rule : string; why : string }
  | Dependent of { why : string }

type pair = { p_a : string; p_b : string; p_verdict : verdict }

type matrix = {
  x_case : string;
  x_moves : move list;
  x_pairs : pair list;  (** unordered pairs of distinct moves *)
  x_certs : (string * string) list;
      (** the rule-2 (PCM) certified name pairs *)
}

(** {1 The sampled commutation check (rule 2's dynamic half)} *)

type sample =
  | Pass  (** both orders ran and agreed on final state and results *)
  | Skip  (** the pair is not jointly runnable from this state *)
  | Refuted of string  (** a located counterexample to commutation *)

val commute_sample : any_action -> any_action -> State.t -> sample
(** Run the pair in both orders from one state and compare.  Exposed so
    test_analysis.ml can QCheck the certified pairs on random coherent
    states. *)

val min_witnesses : int
(** How many [Pass] states a rule-2 certificate requires (sampling with
    no witnesses certifies nothing). *)

(** {1 Per-case inventories and analysis} *)

type inventory = {
  i_world : World.t;
  i_states : State.t list;
  i_actions : any_action list;
}

val inventory_of_case : string -> inventory option
(** The moves a Table 1 row's programs schedule — the action instances
    its drivers build, with the drivers' labels and parameters.  [None]
    for names not in the registry. *)

val analyze_case : string -> matrix option
val analyze_all : unit -> matrix list
(** One matrix per registry row with an inventory (rows sharing a
    driver share an inventory and produce identical matrices). *)

val independent_count : matrix -> int
val pp_matrix : Format.formatter -> matrix -> unit

val matrix_to_json : matrix -> Json.t
(** Stable shape for CI: {["{\"case\": .., \"moves\": [..], \"pairs\":
    [{\"a\", \"b\", \"independent\", \"rule\", \"why\"}]}"]}. *)
