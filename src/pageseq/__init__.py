"""pageseq: sequence-aware document page-type classification.

Classifies the pages of multi-page documents with a per-page text encoder
whose input carries the previous page's type as a special token, trained with
teacher forcing and decoded strictly left to right.  Ships context baselines
(a linear-chain CRF and a BiLSTM, each over the frozen encoder's per-page
log-softmax scores) and an evaluation harness with the McNemar-Bowker paired significance test.
"""

__version__ = "0.1.0"
