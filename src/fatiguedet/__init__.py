"""Driver fatigue detection pipeline.

Modules:
  imaging    - PNM codec, grayscale, resizing, integral images, preprocessing
  detector   - Haar features, boosted cascade training, multi-scale detection
  features   - face/eye/mouth ROI geometry and PCA compression
  classifier - SMO-trained soft-margin SVM and cross_validate, the one
               cross-validation runner (group-aware or stratified folds)
  fatigue    - running-sum accumulator and alert state machine
  synth      - synthetic labeled face-frame generator
  pipeline   - dataset ingest, one per-frame feature loop for training and
               streaming inference, evaluation through cross_validate
  cli        - command-line entry points
"""

__version__ = "0.1.0"
