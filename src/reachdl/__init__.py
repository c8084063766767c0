"""Description logic with reachability assertions over finite structures,
plus the heap-program verification layer built on it."""

from .syntax import (And, AtMost, Atomic, BOT, Bot, Concept, Eq, Exists, FAnd,
                     FNot, FOr, Formula, Incl, Nominal, Not, Or, Role, TOP,
                     TRUE, Top, UpdatePoint, Vocabulary, concepts_of, conj,
                     disj, exactly, atleast, inv, role, to_text)
from .structures import (Evaluator, FiniteStructure, eval_concept, eval_formula, structure,
                         type_of)
from .parser import (parse_concept, parse_formula, parse_formula_file,
                     parse_spec_file, parse_structure_file, structure_to_text)
from .reach import (DisjAssertion, ReachAssertion, ReachSpec, assoc_formula,
                    check_compatibility, check_semi_connected, check_spec,
                    reach_graph, alist_spec, clist_spec, list_spec, tree_spec,
                    LIST_VOCAB, TREE_VOCAB)
from .reduction import (boolean_closure_reduction, implication_reduction, nnf,
                        ord_membership, ord_reduction_exp, ord_reduction_poly,
                        sat_pipeline_full, semi_formula, ord_lift,
                        bc_lift)
from .models import (SwapTuple, apply_swap, check_model, dfs_labeling,
                     find_model, graph_value, labeling_is_useful, repair,
                     useful_labeling, find_semi_useful_model)
from .fol import to_first_order, fo_eval

__version__ = "0.1.0"
