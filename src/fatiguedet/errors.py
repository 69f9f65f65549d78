"""Exception types shared across the pipeline.

Two broad families matter for the CLI exit-code contract: DataError (bad
inputs, datasets, images) maps to exit code 2, ModelError (bad or
incompatible model files) maps to exit code 3.
"""


class FatigueDetError(Exception):
    pass


class DataError(FatigueDetError):
    pass


class ModelError(FatigueDetError):
    pass


# imaging
class MalformedHeader(DataError):
    pass


class TruncatedRaster(DataError):
    pass


class UnsupportedMaxval(DataError):
    pass


class OutOfBounds(DataError):
    pass


# detector
class NoFeatures(DataError):
    pass


class EmptyInput(DataError):
    pass


class ImageTooSmall(DataError):
    pass


class ImageTooLarge(DataError):
    pass


# features
class WrongDimensions(DataError):
    pass


class DegenerateData(DataError):
    pass


class BadK(DataError):
    pass


class DimensionMismatch(ModelError):
    pass


# classifier
class SingleClass(DataError):
    pass


class NonFinite(DataError):
    pass


class TooFewSamples(DataError):
    pass


# text model formats
class ParseError(ModelError):
    pass


class VersionMismatch(ModelError):
    pass


# harness
class BadLabel(DataError):
    pass


class MissingFile(DataError):
    pass


class EmptyManifest(DataError):
    pass


class ManifestError(DataError):
    pass


class ConfigError(DataError):
    pass


class NoFacesFound(DataError):
    pass


class ModelMismatch(ModelError):
    pass
