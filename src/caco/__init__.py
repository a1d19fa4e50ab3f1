"""Category-contrast trainer for unsupervised domain adaptation on synthetic tasks."""
